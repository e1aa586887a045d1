package catalog

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sling/internal/rng"
	"strings"
	"sync"
	"testing"
	"time"

	"sling"
	"sling/internal/metrics"
)

// writeGraph writes a deterministic random edge list with n nodes to
// dir and returns its path.
func writeGraph(t *testing.T, dir, name string, n, edges int, seed int64) string {
	t.Helper()
	rnd := rng.New(uint64(seed))
	var sb strings.Builder
	sb.WriteString("# test graph\n")
	// A ring first so every node has an edge and the node count is n.
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, (i+1)%n)
	}
	for i := 0; i < edges; i++ {
		fmt.Fprintf(&sb, "%d %d\n", rnd.Intn(n), rnd.Intn(n))
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testManifest builds a three-graph manifest (all memory mode) over
// fresh edge lists.
func testManifest(t *testing.T, budget int64) Manifest {
	t.Helper()
	dir := t.TempDir()
	m := Manifest{MemoryBudgetBytes: budget}
	for i, id := range []string{"ga", "gb", "gc"} {
		m.Graphs = append(m.Graphs, GraphSpec{
			ID:    id,
			Graph: writeGraph(t, dir, id+".txt", 30, 60, int64(100+i)),
			Eps:   0.1,
			Seed:  uint64(50 + i),
		})
	}
	return m
}

func acquire(t *testing.T, c *Catalog, id string) *Handle {
	t.Helper()
	h, err := c.Acquire(context.Background(), id)
	if err != nil {
		t.Fatalf("Acquire(%s): %v", id, err)
	}
	return h
}

func TestLazyOpenAndQueries(t *testing.T) {
	c, err := New(testManifest(t, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if st := c.Stats(); st.Open != 0 || st.Graphs != 3 {
		t.Fatalf("before first acquire: %+v", st)
	}
	h := acquire(t, c, "ga")
	defer h.Release()
	s, err := h.Querier().SimRank(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0 || s > 1.2 {
		t.Fatalf("simrank = %v", s)
	}
	if st := c.Stats(); st.Open != 1 || st.ResidentBytes <= 0 {
		t.Fatalf("after acquire: %+v", st)
	}
	if _, err := c.Acquire(context.Background(), "nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph err = %v", err)
	}
}

// TestLRUEvictionReopens opens three graphs under a budget that fits
// only one, checks older graphs are evicted LRU-first, and that an
// evicted graph re-opens transparently with identical answers.
func TestLRUEvictionReopens(t *testing.T) {
	// Budget discovery: open one graph unbudgeted to size it.
	probe, err := New(testManifest(t, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := acquire(t, probe, "ga")
	one := probe.Stats().ResidentBytes
	want, err := hp.Querier().SimRank(context.Background(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	hp.Release()
	probe.Close()

	m := testManifest(t, one+one/2) // fits one open graph, not two
	c, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, id := range []string{"ga", "gb", "gc"} {
		h := acquire(t, c, id)
		h.Release()
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under tight budget: %+v", st)
	}
	if st.ResidentBytes > m.MemoryBudgetBytes {
		t.Fatalf("over budget at idle: %+v", st)
	}
	// gc was used last; ga (oldest) must be closed.
	var gaOpen, gcOpen bool
	for _, gi := range c.Graphs() {
		switch gi.ID {
		case "ga":
			gaOpen = gi.Open
		case "gc":
			gcOpen = gi.Open
		}
	}
	if gaOpen || !gcOpen {
		t.Fatalf("LRU order wrong: ga open=%v gc open=%v", gaOpen, gcOpen)
	}

	// Re-acquiring the evicted graph rebuilds it; seeded builds make the
	// answer bitwise-identical.
	h := acquire(t, c, "ga")
	defer h.Release()
	got, err := h.Querier().SimRank(context.Background(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("re-opened graph differs: %v != %v", got, want)
	}
	for _, gi := range c.Graphs() {
		if gi.ID == "ga" && gi.Opens < 2 {
			t.Fatalf("ga opens = %d, want >= 2", gi.Opens)
		}
	}
}

// TestEvictionSkipsHeldHandles: an entry with an outstanding handle is
// never closed underneath the caller, even over budget.
func TestEvictionSkipsHeldHandles(t *testing.T) {
	c, err := New(testManifest(t, 1), nil) // budget smaller than anything
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ha := acquire(t, c, "ga")
	hb := acquire(t, c, "gb")
	// Both held: neither may be evicted despite the 1-byte budget.
	if _, err := ha.Querier().SimRank(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Querier().SimRank(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	ha.Release()
	hb.Release()
	// After release the budget applies again.
	if st := c.Stats(); st.Open > 1 {
		t.Fatalf("idle graphs kept over budget: %+v", st)
	}
}

func TestQuotaThrottling(t *testing.T) {
	m := testManifest(t, 0)
	m.Graphs[0].MaxQPS = 1 // burst derives to 1 token
	c, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	h := acquire(t, c, "ga")
	defer h.Release()
	if err := h.AllowOps(1); err != nil {
		t.Fatalf("first op throttled: %v", err)
	}
	err = h.AllowOps(1)
	var te *ThrottleError
	if !errors.As(err, &te) || !errors.Is(err, ErrThrottled) {
		t.Fatalf("second op err = %v, want ThrottleError", err)
	}
	if te.RetryAfter <= 0 || te.RetryAfter > 2*time.Second {
		t.Fatalf("RetryAfter = %v", te.RetryAfter)
	}
	if st := c.Stats(); st.Throttled != 1 {
		t.Fatalf("throttled_ops = %d, want 1", st.Throttled)
	}
	// Unquoted graph is unaffected.
	h2 := acquire(t, c, "gb")
	defer h2.Release()
	for i := 0; i < 100; i++ {
		if err := h2.AllowOps(1); err != nil {
			t.Fatalf("unlimited graph throttled: %v", err)
		}
	}
}

// TestBurstAdmitsMaxBatch: the derived burst admits one maximal batch
// even when MaxQPS is tiny.
func TestBurstAdmitsMaxBatch(t *testing.T) {
	m := testManifest(t, 0)
	m.Graphs[0].MaxQPS = 0.5
	m.Graphs[0].MaxBatchOps = 16
	c, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := acquire(t, c, "ga")
	defer h.Release()
	if err := h.AllowOps(16); err != nil {
		t.Fatalf("maximal batch rejected on a full bucket: %v", err)
	}
	if err := h.AllowOps(16); err == nil {
		t.Fatal("second maximal batch admitted immediately")
	}
}

func TestDynamicEntriesPinned(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{
		MemoryBudgetBytes: 1,
		Graphs: []GraphSpec{
			{ID: "dyn", Graph: writeGraph(t, dir, "d.txt", 20, 40, 3), Mode: "dynamic", Eps: 0.15, Seed: 9},
			{ID: "mem", Graph: writeGraph(t, dir, "m.txt", 20, 40, 4), Eps: 0.15, Seed: 10},
		},
	}
	c, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hd := acquire(t, c, "dyn")
	if hd.Dynamic() == nil {
		t.Fatal("dynamic handle has no DynamicIndex")
	}
	hd.Release()
	// Opening the memory graph forces eviction; the dynamic entry must
	// survive even though it is idle and over budget.
	hm := acquire(t, c, "mem")
	hm.Release()
	for _, gi := range c.Graphs() {
		if gi.ID == "dyn" && !gi.Open {
			t.Fatal("dynamic entry was evicted")
		}
	}
}

// A dynamic entry with durable_dir journals updates; a later catalog on
// the same manifest must restore them — the durable directory, not the
// edge list, is the authoritative state after the first open.
func TestDurableDirRestoresAcrossCatalogs(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Graphs: []GraphSpec{{
		ID: "dyn", Graph: writeGraph(t, dir, "d.txt", 16, 30, 5),
		Mode: "dynamic", Eps: 0.15, Seed: 21,
		DurableDir: filepath.Join(dir, "durable"),
	}}}

	c, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := acquire(t, c, "dyn")
	dx := h.Dynamic()
	if _, n, err := dx.Apply([]sling.EdgeOp{{Add: true, From: 3, To: 11}}); err != nil || n != 1 {
		t.Fatalf("apply: n=%d err=%v", n, err)
	}
	wantEdges := dx.Graph().NumEdges()
	want, err := dx.SimRank(context.Background(), 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	c.Close()

	c2, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	h2 := acquire(t, c2, "dyn")
	defer h2.Release()
	dx2 := h2.Dynamic()
	if got := dx2.Graph().NumEdges(); got != wantEdges {
		t.Fatalf("restored graph has %d edges, want %d (journaled add lost)", got, wantEdges)
	}
	got, err := dx2.SimRank(context.Background(), 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("restored SimRank(3,11) = %v, want bitwise %v", got, want)
	}
}

// TestConcurrentAcquireQueryEvict hammers open/query/release across all
// graphs under a budget that fits roughly one, so opens, evictions, and
// queries continuously interleave. Run with -race.
func TestConcurrentAcquireQueryEvict(t *testing.T) {
	probe, err := New(testManifest(t, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := acquire(t, probe, "ga")
	one := probe.Stats().ResidentBytes
	hp.Release()
	probe.Close()

	c, err := New(testManifest(t, one+one/2), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids := []string{"ga", "gb", "gc"}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := ids[(w+i)%len(ids)]
				h, err := c.Acquire(context.Background(), id)
				if err != nil {
					errCh <- err
					return
				}
				if _, err := h.Querier().SimRank(context.Background(), sling.NodeID(i%30), sling.NodeID((i+1)%30)); err != nil {
					errCh <- fmt.Errorf("%s: %w", id, err)
					h.Release()
					return
				}
				h.ObserveLatency(time.Now())
				h.CountOps(1)
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Requests != 8*40 {
		t.Fatalf("requests = %d, want %d", st.Requests, 8*40)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions during concurrent churn under tight budget")
	}
}

// TestOpenFailurePropagatesToWaiters: a broken graph file fails every
// concurrent waiter with the same error and leaves the entry re-openable.
func TestOpenFailurePropagatesToWaiters(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing.txt")
	m := Manifest{Graphs: []GraphSpec{{ID: "bad", Graph: bad}}}
	c, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Acquire(context.Background(), "bad")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d got nil error", i)
		}
	}
	// Fix the file; the entry recovers.
	writeGraph(t, dir, "missing.txt", 10, 10, 1)
	h := acquire(t, c, "bad")
	h.Release()
}

func TestMetricsSurface(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := New(testManifest(t, 0), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := acquire(t, c, "ga")
	h.CountOps(1)
	h.ObserveLatency(time.Now())
	h.Release()

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		MetricRequests + `{graph="ga"} 1`,
		MetricLatency + `_count{graph="ga"} 1`,
		MetricOpenGraphs + " 1",
		MetricGraphs + " 3",
		MetricEvictions + " 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// blockingMeta is an open dynamic entry's Querier whose Meta parks until
// release is closed, the way a durable graph's Meta waits on its WAL
// mutex while a snapshot is written and fsynced.
type blockingMeta struct {
	sling.Querier // nil: only Meta and Close are called
	entered       chan struct{}
	release       chan struct{}
}

func (b *blockingMeta) Meta() sling.QuerierMeta {
	close(b.entered)
	<-b.release
	return sling.QuerierMeta{Epoch: 3}
}

func (b *blockingMeta) Close() error { return nil }

// A /metrics scrape whose epoch gauge waits on a slow Meta must not hold
// the catalog lock: every Acquire, Release and Stats takes that lock.
func TestEpochGaugeDoesNotBlockCatalog(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := New(Manifest{Graphs: []GraphSpec{
		{ID: "dyn", Graph: "never-opened.txt", Mode: "dynamic"},
	}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := &blockingMeta{entered: make(chan struct{}), release: make(chan struct{})}
	c.mu.Lock()
	e := c.entries["dyn"]
	e.state, e.q = stateOpen, q
	c.mu.Unlock()

	scraped := make(chan string)
	go func() {
		var sb strings.Builder
		reg.WriteText(&sb)
		scraped <- sb.String()
	}()
	<-q.entered
	stats := make(chan Stats, 1)
	go func() { stats <- c.Stats() }()
	select {
	case st := <-stats:
		if st.Open != 1 {
			t.Errorf("Stats().Open = %d, want 1", st.Open)
		}
	case <-time.After(5 * time.Second):
		t.Error("Stats blocked while a scrape waited on Meta")
	}
	close(q.release)
	if out := <-scraped; !strings.Contains(out, MetricGraphEpoch+`{graph="dyn"} 3`) {
		t.Errorf("exposition missing the epoch gauge:\n%s", out)
	}
}

func TestManifestValidate(t *testing.T) {
	base := GraphSpec{ID: "g", Graph: "g.txt"}
	cases := []struct {
		name string
		m    Manifest
	}{
		{"empty", Manifest{}},
		{"bad id", Manifest{Graphs: []GraphSpec{{ID: "a/b", Graph: "x"}}}},
		{"dup id", Manifest{Graphs: []GraphSpec{base, base}}},
		{"no path", Manifest{Graphs: []GraphSpec{{ID: "g"}}}},
		{"disk no index", Manifest{Graphs: []GraphSpec{{ID: "g", Graph: "x", Mode: "disk"}}}},
		{"bad mode", Manifest{Graphs: []GraphSpec{{ID: "g", Graph: "x", Mode: "turbo"}}}},
		{"dynamic undirected", Manifest{Graphs: []GraphSpec{{ID: "g", Graph: "x", Mode: "dynamic", Undirected: true}}}},
		{"durable non-dynamic", Manifest{Graphs: []GraphSpec{{ID: "g", Graph: "x", DurableDir: "d"}}}},
		{"mmap non-disk", Manifest{Graphs: []GraphSpec{{ID: "g", Graph: "x", Mmap: true}}}},
		{"bad default", Manifest{Graphs: []GraphSpec{base}, Default: "zzz"}},
		{"neg quota", Manifest{Graphs: []GraphSpec{{ID: "g", Graph: "x", MaxQPS: -1}}}},
		{"neg budget", Manifest{Graphs: []GraphSpec{base}, MemoryBudgetBytes: -1}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	ok := Manifest{Graphs: []GraphSpec{base}, Default: "g"}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}

func TestLoadManifestResolvesPaths(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, dir, "g.txt", 10, 10, 1)
	mf := filepath.Join(dir, "catalog.json")
	doc := `{"graphs":[{"id":"g","graph":"g.txt","eps":0.2,"seed":1}]}`
	if err := os.WriteFile(mf, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(mf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := acquire(t, c, "g") // only works if g.txt resolved relative to dir
	h.Release()

	// Unknown fields are rejected.
	if _, err := ParseManifest(strings.NewReader(`{"graphs":[],"max_qpss":3}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}
