// Package metrics is a small, dependency-free instrumentation registry:
// counters, gauges, and fixed-bucket histograms, each optionally labeled,
// rendered in the Prometheus text exposition format (GET /metrics). The
// /stats JSON documents are typed views the server builds from its
// backends, not from this registry.
//
// It exists so the serving stack has one observability surface instead of
// hand-rolled per-mode stats closures: the in-memory index's size, the
// dynamic layer's epoch/rebuild/staleness counters, the catalog's
// residency, and the HTTP layer's request/canceled/throttled counts all
// register here, and dashboards scrape one endpoint with stable
// instrument names.
//
// Instruments are cheap enough for hot paths: a Counter.Add is one atomic
// add, a Histogram.Observe is two atomic adds plus a bucket scan over a
// fixed-size array. Registration is get-or-create and idempotent for
// identical (name, labels) pairs; re-registering a name with a different
// instrument kind panics, since that is a programming error no caller can
// recover from meaningfully.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension on an instrument. The catalog labels
// per-graph instruments with {Key: "graph", Value: <graph ID>}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LatencyBuckets are the fixed histogram boundaries (in seconds) every
// request-latency histogram uses, spanning 50µs..2.5s. Fixed buckets keep
// the exposition schema stable across deployments so dashboards and the
// golden exposition test never churn.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5,
}

// kind discriminates instrument families in the exposition output.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. Set with Set, or register a
// GaugeFunc to compute the value at collection time instead.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64 // non-nil for GaugeFunc registrations
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value (calling the callback for a GaugeFunc).
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Observations
// are float64s (seconds, for latency histograms); the bucket boundaries
// are upper-inclusive like Prometheus ("le").
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // count of observations <= bounds[i]
	inf     atomic.Uint64   // observations beyond the last bound
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			goto counted
		}
	}
	h.inf.Add(1)
counted:
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the target bucket, the same
// estimate Prometheus's histogram_quantile computes. It returns 0 with
// no observations; observations beyond the last bound clamp to it.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i, b := range h.bounds {
		c := h.buckets[i].Load()
		if float64(cum)+float64(c) >= rank && c > 0 {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (b-lower)*frac
		}
		cum += c
		lower = b
	}
	return lower // everything else landed in +Inf; clamp to the last bound
}

// instrument is one registered (name, labels) series.
type instrument struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series of one instrument name.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histograms only
	series []*instrument
}

// Registry holds registered instruments. The zero value is not usable;
// construct with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelsEqual reports whether two label sets match exactly (order
// matters; callers use a fixed order per instrument name).
func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup finds or creates the family and series for (name, labels),
// enforcing one kind per name.
func (r *Registry) lookup(name, help string, k kind, bounds []float64, labels []Label) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, bounds: bounds}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, k))
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return s
		}
	}
	s := &instrument{labels: append([]Label(nil), labels...)}
	switch k {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		hb := f.bounds
		s.h = &Histogram{bounds: hb, buckets: make([]atomic.Uint64, len(hb))}
	}
	f.series = append(f.series, s)
	return s
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge registers (or fetches) a settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// GaugeFunc registers a gauge whose value is computed by fn at
// collection time — the natural shape for readings that already live
// somewhere (cache occupancy, epoch number, resident bytes). fn must be
// safe for concurrent calls. Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, kindGauge, nil, labels).g.fn = fn
}

// Histogram registers (or fetches) a histogram series with the given
// bucket bounds (nil means LatencyBuckets). Bounds are fixed per name:
// the first registration wins.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	return r.lookup(name, help, kindHistogram, bounds, labels).h
}

// labelString renders {k="v",...} for the exposition format, with extra
// appended last (used for histogram "le").
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// fmtFloat renders a sample value the way Prometheus clients do:
// integers without a decimal point, everything else in shortest form.
func fmtFloat(v float64) string {
	//slingvet:ignore floateq exact integer-valuedness test for rendering, not a score comparison; a tolerance would misprint 2.0000001 as 2
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteText writes every series in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers per family, one
// sample line per series, histogram series expanded into cumulative
// _bucket/_sum/_count samples. Families appear in registration order
// and series in per-family registration order, so the output is stable
// — the golden exposition test depends on that.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", name, labelString(s.labels), s.c.Value())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", name, labelString(s.labels), fmtFloat(s.g.Value()))
			case kindHistogram:
				var cum uint64
				for i, b := range s.h.bounds {
					cum += s.h.buckets[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", name,
						labelString(s.labels, L("le", fmtFloat(b))), cum)
				}
				cum += s.h.inf.Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(s.labels, L("le", "+Inf")), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(s.labels), fmtFloat(s.h.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(s.labels), s.h.Count())
			}
		}
	}
	return nil
}

// Names returns the registered family names in registration order, with
// their kinds — the surface the exposition golden test pins.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	for i, name := range r.order {
		out[i] = name + " " + string(r.families[name].kind)
	}
	return out
}

// SeriesLabels returns the sorted "name{k=v,...}" identity of every
// series, for tests asserting label stability.
func (r *Registry) SeriesLabels() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, name := range r.order {
		for _, s := range r.families[name].series {
			out = append(out, name+labelString(s.labels))
		}
	}
	sort.Strings(out)
	return out
}

// Handler serves the text exposition over HTTP — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
