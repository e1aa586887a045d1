package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) returns the same series.
	if r.Counter("reqs_total", "requests") != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels are a different series.
	c2 := r.Counter("reqs_total", "requests", L("graph", "g1"))
	c2.Inc()
	if c.Value() != 5 || c2.Value() != 1 {
		t.Fatal("labeled series not independent")
	}

	g := r.Gauge("resident_bytes", "bytes")
	g.Set(12.5)
	if g.Value() != 12.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	r.GaugeFunc("epoch", "epoch", func() float64 { return 7 })
	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\nepoch 7\n") {
		t.Fatalf("gauge func not collected:\n%s", buf.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", nil)
	// 100 observations spread uniformly over (0, 1ms]: p50 ≈ 0.5ms,
	// p99 ≈ 1ms, within bucket-interpolation error.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 1e-5)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 2e-4 || p50 > 8e-4 {
		t.Fatalf("p50 = %v, want ~5e-4", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 5e-4 || p99 > 1.1e-3 {
		t.Fatalf("p99 = %v, want ~1e-3", p99)
	}
	if h.Quantile(0.5) == 0 && h.Count() > 0 {
		t.Fatal("quantile 0 with observations")
	}
	// Observations beyond the last bound clamp to it.
	h2 := r.Histogram("big_seconds", "latency", nil)
	h2.Observe(100)
	if got, want := h2.Quantile(0.99), LatencyBuckets[len(LatencyBuckets)-1]; got != want {
		t.Fatalf("overflow quantile = %v, want clamp to %v", got, want)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("sling_requests_total", "served requests", L("graph", "g1")).Add(3)
	r.Gauge("sling_open_graphs", "open graphs").Set(2)
	r.Histogram("sling_request_seconds", "request latency", nil, L("graph", "g1")).Observe(0.002)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE sling_requests_total counter",
		`sling_requests_total{graph="g1"} 3`,
		"# TYPE sling_open_graphs gauge",
		"sling_open_graphs 2",
		"# TYPE sling_request_seconds histogram",
		`sling_request_seconds_bucket{graph="g1",le="0.0025"} 1`,
		`sling_request_seconds_bucket{graph="g1",le="+Inf"} 1`,
		`sling_request_seconds_count{graph="g1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: le=+Inf equals the count.
	if strings.Count(out, "_bucket") != len(LatencyBuckets)+1 {
		t.Errorf("bucket line count = %d, want %d", strings.Count(out, "_bucket"), len(LatencyBuckets)+1)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c_total", "c")
			h := r.Histogram("h_seconds", "h", nil)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%10) * 1e-4)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c_total", "c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
