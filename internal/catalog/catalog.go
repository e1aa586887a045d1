// Package catalog serves many graphs from one process: a registry of
// manifest-declared graphs, each lazily opened as a sling.Querier
// (memory, disk, or dynamic per entry) on first use, evicted
// least-recently-used when the summed QuerierMeta.Bytes footprint
// exceeds a global memory budget, and guarded by per-graph operation
// quotas (token bucket) — the multi-tenant layer the HTTP server routes
// /g/{id}/... requests through.
//
// SLING's index is small (O(n/ε)) and cheap to load, which is what makes
// dozens-of-graphs-per-server practical: an evicted graph re-opens on
// the next request in build-or-load time, and the budget turns a fixed
// fleet of processes into an LRU cache over the whole graph corpus.
//
// Concurrency model: one catalog mutex guards entry states, refcounts,
// LRU stamps, and budget accounting; the expensive open (graph load +
// index build) runs outside it with waiters parked on a per-attempt
// channel. Handles refcount open backends so eviction never closes a
// Querier mid-query: eviction skips entries with in-flight handles and
// picks them up when the last handle is released. Dynamic entries are
// pinned — evicting one would silently discard applied edge updates.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"sling"
	"sling/internal/metrics"
)

// ErrUnknownGraph is returned by Acquire for an ID not in the manifest.
var ErrUnknownGraph = errors.New("catalog: unknown graph")

// ErrThrottled is the sentinel wrapped by ThrottleError; the HTTP layer
// maps it to 429.
var ErrThrottled = errors.New("catalog: quota exceeded")

// ThrottleError reports a quota rejection and how long until the bucket
// has refilled enough to admit the request.
type ThrottleError struct {
	Graph      string
	Ops        int
	RetryAfter time.Duration
}

func (e *ThrottleError) Error() string {
	return fmt.Sprintf("catalog: graph %q: %d op(s) over quota, retry in %s", e.Graph, e.Ops, e.RetryAfter)
}

func (e *ThrottleError) Unwrap() error { return ErrThrottled }

// tokenBucket is a standard token bucket: rate tokens/second refill,
// capacity burst. take reports whether n tokens were available and, if
// not, how long until they would be.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

func (b *tokenBucket) take(n float64) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return 0, true
	}
	need := (n - b.tokens) / b.rate
	return time.Duration(need * float64(time.Second)), false
}

// entry states.
const (
	stateClosed = iota
	stateOpening
	stateOpen
)

// openAttempt parks waiters while one goroutine runs the expensive open.
type openAttempt struct {
	done chan struct{}
	err  error // valid after done is closed
}

type entry struct {
	spec   GraphSpec
	state  int
	op     *openAttempt
	q      sling.Querier
	dyn    *sling.DynamicIndex // non-nil for dynamic entries (pinned)
	labels []int64
	byLbl  map[int64]sling.NodeID // external label -> dense ID; nil for dense graphs
	bytes  int64
	refs   int
	stamp  uint64 // LRU clock value of the last acquire
	opens  uint64 // lifetime opens (first open + re-opens after eviction)

	bucket *tokenBucket

	requests  *metrics.Counter
	throttled *metrics.Counter
	errorsC   *metrics.Counter
	latency   *metrics.Histogram
}

// Catalog is the multi-graph registry. Safe for concurrent use.
type Catalog struct {
	mu        sync.Mutex
	entries   map[string]*entry
	ids       []string // manifest order
	defaultID string
	budget    int64
	used      int64
	clock     uint64
	closed    bool

	reg       *metrics.Registry
	evictions *metrics.Counter
	throttled *metrics.Counter // catalog-wide, alongside the per-graph series
	requests  *metrics.Counter
}

// Metric family names, shared with the exposition golden test.
const (
	MetricRequests      = "sling_graph_requests_total"
	MetricThrottled     = "sling_graph_throttled_total"
	MetricErrors        = "sling_graph_errors_total"
	MetricLatency       = "sling_graph_request_seconds"
	MetricEvictions     = "sling_catalog_evictions_total"
	MetricOpenGraphs    = "sling_catalog_open_graphs"
	MetricGraphs        = "sling_catalog_graphs"
	MetricResidentBytes = "sling_catalog_resident_bytes"
	MetricBudgetBytes   = "sling_catalog_budget_bytes"
	MetricGraphOpen     = "sling_graph_open"
	MetricGraphBytes    = "sling_graph_resident_bytes"
	MetricGraphEpoch    = "sling_graph_epoch"
)

// New builds a catalog over a validated manifest, registering every
// per-graph instrument up front (so the metric surface is complete from
// the first scrape, not dependent on traffic order). reg may be nil, in
// which case the catalog creates its own registry.
func New(m Manifest, reg *metrics.Registry) (*Catalog, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Catalog{
		entries:   make(map[string]*entry, len(m.Graphs)),
		defaultID: m.Default,
		budget:    m.MemoryBudgetBytes,
		reg:       reg,
	}
	if c.defaultID == "" {
		c.defaultID = m.Graphs[0].ID
	}
	c.evictions = reg.Counter(MetricEvictions, "graphs closed to fit the memory budget")
	c.throttled = reg.Counter(MetricThrottled, "operations rejected by per-graph quotas")
	c.requests = reg.Counter(MetricRequests, "query operations served")
	reg.Gauge(MetricGraphs, "graphs in the catalog manifest").Set(float64(len(m.Graphs)))
	reg.GaugeFunc(MetricOpenGraphs, "graphs currently open", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, e := range c.entries {
			if e.state == stateOpen {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc(MetricResidentBytes, "summed QuerierMeta.Bytes of open graphs", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.used)
	})
	reg.Gauge(MetricBudgetBytes, "memory budget (0 = unlimited)").Set(float64(m.MemoryBudgetBytes))

	for _, spec := range m.Graphs {
		spec := spec
		gl := metrics.L("graph", spec.ID)
		e := &entry{
			spec:      spec,
			requests:  reg.Counter(MetricRequests, "query operations served", gl),
			throttled: reg.Counter(MetricThrottled, "operations rejected by per-graph quotas", gl),
			errorsC:   reg.Counter(MetricErrors, "failed query operations", gl),
			latency:   reg.Histogram(MetricLatency, "request latency", nil, gl),
		}
		if spec.MaxQPS > 0 {
			burst := float64(spec.Burst)
			if burst == 0 {
				burst = math.Max(1, math.Ceil(spec.MaxQPS))
				if float64(spec.MaxBatchOps) > burst {
					burst = float64(spec.MaxBatchOps)
				}
			}
			e.bucket = newTokenBucket(spec.MaxQPS, burst)
		}
		reg.GaugeFunc(MetricGraphOpen, "1 when the graph is open", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if e.state == stateOpen {
				return 1
			}
			return 0
		}, gl)
		reg.GaugeFunc(MetricGraphBytes, "QuerierMeta.Bytes while open", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if e.state == stateOpen {
				return float64(e.bytes)
			}
			return 0
		}, gl)
		if spec.mode() == "dynamic" {
			reg.GaugeFunc(MetricGraphEpoch, "serving index generation", func() float64 {
				// Meta waits on the graph's WAL mutex, which a durable
				// append or snapshot holds across its fsync, so it runs
				// after c.mu is released: under c.mu it would stall every
				// Acquire and Release. Dynamic entries are pinned, so q
				// stays open.
				c.mu.Lock()
				q := e.q // nil unless open
				c.mu.Unlock()
				if q == nil {
					return 0
				}
				return float64(q.Meta().Epoch)
			}, gl)
		}
		c.entries[spec.ID] = e
		c.ids = append(c.ids, spec.ID)
	}
	return c, nil
}

// Load is New over LoadManifest(path).
func Load(path string, reg *metrics.Registry) (*Catalog, error) {
	m, err := LoadManifest(path)
	if err != nil {
		return nil, err
	}
	return New(m, reg)
}

// Registry returns the catalog's metrics registry.
func (c *Catalog) Registry() *metrics.Registry { return c.reg }

// DefaultID returns the graph the legacy un-prefixed routes serve.
func (c *Catalog) DefaultID() string { return c.defaultID }

// IDs returns every graph ID in manifest order.
func (c *Catalog) IDs() []string { return append([]string(nil), c.ids...) }

// open runs the expensive part of opening an entry — graph load plus
// index build/load — outside the catalog lock.
func (e *entry) open() (sling.Querier, *sling.DynamicIndex, []int64, error) {
	spec := &e.spec
	g, labels, err := sling.LoadEdgeListFile(spec.Graph, spec.Undirected)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("catalog: graph %q: %w", spec.ID, err)
	}
	var opts []sling.BuildOption
	if spec.Eps > 0 {
		opts = append(opts, sling.WithEps(spec.Eps))
	}
	if spec.C > 0 {
		opts = append(opts, sling.WithC(spec.C))
	}
	if spec.Seed > 0 {
		opts = append(opts, sling.WithSeed(spec.Seed))
	}
	if spec.Workers > 0 {
		opts = append(opts, sling.WithWorkers(spec.Workers))
	}
	switch spec.mode() {
	case "memory":
		var ix *sling.Index
		if spec.Index != "" {
			ix, err = sling.Open(spec.Index, g)
		} else {
			ix, err = sling.Build(g, opts...)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("catalog: graph %q: %w", spec.ID, err)
		}
		return ix, nil, labels, nil
	case "disk":
		di, err := sling.OpenDiskWithOptions(spec.Index, g, &sling.DiskOptions{Workers: spec.Workers, Mmap: spec.Mmap})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("catalog: graph %q: %w", spec.ID, err)
		}
		return di, nil, labels, nil
	case "dynamic":
		do := &sling.DynamicOptions{
			RebuildThreshold: spec.RebuildThreshold,
			NumWalks:         spec.Walks,
			Depth:            spec.Depth,
			Workers:          spec.Workers,
			Seed:             spec.Seed,
			DurableDir:       spec.DurableDir,
		}
		var dx *sling.DynamicIndex
		if spec.DurableDir != "" {
			// Restore-or-create: an already-populated durable directory is
			// the authoritative state (it may hold updates the edge list
			// never saw); a fresh one starts from the edge list.
			dx, err = sling.RestoreDynamic(do, opts...)
			if errors.Is(err, sling.ErrNoDurableState) {
				dx, err = sling.NewDynamic(g, do, opts...)
			}
		} else {
			dx, err = sling.NewDynamic(g, do, opts...)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("catalog: graph %q: %w", spec.ID, err)
		}
		return dx, dx, labels, nil
	}
	return nil, nil, nil, fmt.Errorf("catalog: graph %q: unknown mode %q", spec.ID, spec.Mode)
}

// Acquire returns a refcounted handle on the graph's Querier, opening
// the backend if it is not resident (and evicting idle graphs if the
// open pushes the catalog over its memory budget). Every Acquire must
// be paired with Handle.Release. ctx bounds only the wait for a
// concurrent open — an open in progress is never aborted, so the work
// benefits the next caller even if this one gives up.
func (c *Catalog) Acquire(ctx context.Context, id string) (*Handle, error) {
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, errors.New("catalog: closed")
		}
		switch e.state {
		case stateOpen:
			e.refs++
			c.clock++
			e.stamp = c.clock
			c.mu.Unlock()
			return &Handle{cat: c, e: e}, nil

		case stateOpening:
			op := e.op
			c.mu.Unlock()
			select {
			case <-op.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if op.err != nil {
				return nil, op.err
			}
			c.mu.Lock()
			// Loop: usually open now, but it may already have been
			// evicted again under a tight budget.

		case stateClosed:
			op := &openAttempt{done: make(chan struct{})}
			e.state = stateOpening
			e.op = op
			c.mu.Unlock()

			q, dyn, labels, err := e.open()

			c.mu.Lock()
			e.op = nil
			if err != nil {
				e.state = stateClosed
				op.err = err
				c.mu.Unlock()
				close(op.done)
				return nil, err
			}
			e.state = stateOpen
			e.q, e.dyn, e.labels = q, dyn, labels
			if labels != nil {
				// Built once per open: the HTTP layer resolves every node
				// parameter through it, so per-request construction would
				// turn O(1) lookups into O(n) scans.
				e.byLbl = make(map[int64]sling.NodeID, len(labels))
				for id, l := range labels {
					e.byLbl[l] = sling.NodeID(id)
				}
			}
			e.bytes = q.Meta().Bytes
			e.opens++
			c.used += e.bytes
			e.refs++ // protect the fresh entry before evicting others
			c.clock++
			e.stamp = c.clock
			c.evictLocked()
			c.mu.Unlock()
			close(op.done)
			return &Handle{cat: c, e: e}, nil
		}
	}
}

// evictLocked closes least-recently-used idle entries until the
// footprint fits the budget. Entries with in-flight handles or pinned
// (dynamic) entries are skipped; if everything evictable is gone and the
// catalog is still over budget, it stays over — the budget is a target,
// not an admission veto, because refusing to open the requested graph
// would turn an over-budget moment into unavailability.
func (c *Catalog) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		var victim *entry
		for _, e := range c.entries {
			if e.state != stateOpen || e.refs > 0 || e.dyn != nil {
				continue
			}
			if victim == nil || e.stamp < victim.stamp {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		c.closeEntryLocked(victim)
		c.evictions.Inc()
	}
}

// closeEntryLocked releases an open entry's backend and accounting.
func (c *Catalog) closeEntryLocked(e *entry) {
	e.q.Close()
	c.used -= e.bytes
	e.q, e.dyn, e.labels, e.byLbl = nil, nil, nil, nil
	e.bytes = 0
	e.state = stateClosed
}

// Close closes every open backend. Outstanding handles become invalid;
// Close is for process shutdown, not steady state.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, e := range c.entries {
		if e.state == stateOpen {
			c.closeEntryLocked(e)
		}
	}
	return nil
}

// Stats is a point-in-time catalog summary, the source of the
// catalog-mode /stats document.
type Stats struct {
	Graphs        int    `json:"graphs"`
	Open          int    `json:"open_graphs"`
	ResidentBytes int64  `json:"resident_bytes"`
	BudgetBytes   int64  `json:"budget_bytes"`
	Evictions     uint64 `json:"evictions"`
	Throttled     uint64 `json:"throttled_ops"`
	Requests      uint64 `json:"requests"`
}

// Stats snapshots the catalog.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Graphs:        len(c.entries),
		ResidentBytes: c.used,
		BudgetBytes:   c.budget,
		Evictions:     c.evictions.Value(),
		Throttled:     c.throttled.Value(),
		Requests:      c.requests.Value(),
	}
	for _, e := range c.entries {
		if e.state == stateOpen {
			st.Open++
		}
	}
	return st
}

// GraphInfo summarizes one entry for listings (GET /g).
type GraphInfo struct {
	ID       string  `json:"id"`
	Mode     string  `json:"mode"`
	Open     bool    `json:"open"`
	Bytes    int64   `json:"resident_bytes"`
	Opens    uint64  `json:"opens"`
	MaxQPS   float64 `json:"max_qps"`
	Requests uint64  `json:"requests"`
}

// Graphs lists every entry in manifest order.
func (c *Catalog) Graphs() []GraphInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]GraphInfo, 0, len(c.ids))
	for _, id := range c.ids {
		e := c.entries[id]
		out = append(out, GraphInfo{
			ID:       id,
			Mode:     e.spec.mode(),
			Open:     e.state == stateOpen,
			Bytes:    e.bytes,
			Opens:    e.opens,
			MaxQPS:   e.spec.MaxQPS,
			Requests: e.requests.Value(),
		})
	}
	return out
}

// Handle is a leased view of one open graph. Release it when the
// request finishes; the backend stays resident until eviction needs the
// memory and no handles are outstanding.
type Handle struct {
	cat *Catalog
	e   *entry
}

// Querier returns the open backend.
func (h *Handle) Querier() sling.Querier { return h.e.q }

// Dynamic returns the updatable index for dynamic entries, nil
// otherwise.
func (h *Handle) Dynamic() *sling.DynamicIndex { return h.e.dyn }

// Labels returns the dense-ID -> external-label mapping from the
// graph's edge list (nil only if the edge list was already dense).
func (h *Handle) Labels() []int64 { return h.e.labels }

// LabelMap returns the external-label -> dense-ID map (nil for dense
// graphs). Callers must not mutate it.
func (h *Handle) LabelMap() map[int64]sling.NodeID { return h.e.byLbl }

// MaxBatchOps returns the per-graph batch cap (0 = server default).
func (h *Handle) MaxBatchOps() int { return h.e.spec.MaxBatchOps }

// AllowOps charges n operations against the graph's quota. On
// rejection it increments the throttled counters and returns a
// *ThrottleError carrying the Retry-After hint.
func (h *Handle) AllowOps(n int) error {
	if h.e.bucket == nil || n <= 0 {
		return nil
	}
	if wait, ok := h.e.bucket.take(float64(n)); !ok {
		h.e.throttled.Add(uint64(n))
		h.cat.throttled.Add(uint64(n))
		return &ThrottleError{Graph: h.e.spec.ID, Ops: n, RetryAfter: wait}
	}
	return nil
}

// CountOps records n served operations on the per-graph and catalog
// request counters.
func (h *Handle) CountOps(n int) {
	h.e.requests.Add(uint64(n))
	h.cat.requests.Add(uint64(n))
}

// CountError records a failed operation.
func (h *Handle) CountError() { h.e.errorsC.Inc() }

// ObserveLatency records one request's wall time on the per-graph
// latency histogram.
func (h *Handle) ObserveLatency(start time.Time) { h.e.latency.ObserveSince(start) }

// Release returns the lease. After the last release an over-budget
// catalog immediately retries eviction, so memory pressure created by a
// burst of concurrent opens drains as the requests finish.
func (h *Handle) Release() {
	c := h.cat
	c.mu.Lock()
	h.e.refs--
	if h.e.refs == 0 && c.budget > 0 && c.used > c.budget {
		c.evictLocked()
	}
	c.mu.Unlock()
}
