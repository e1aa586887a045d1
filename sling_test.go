package sling

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"sling/internal/rng"
)

// bg is the context used by tests that exercise query semantics rather
// than cancellation.
var bg = context.Background()

func testGraph(n, m int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewGraphBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
	}
	return b.Build()
}

// The helpers below drive any Querier and fail the test on error, so the
// bulk of the suite reads like the old infallible API while still
// covering the uniform error path.

func mustPair(t *testing.T, q Querier, u, v NodeID) float64 {
	t.Helper()
	s, err := q.SimRank(bg, u, v)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSource(t *testing.T, q Querier, u NodeID) []float64 {
	t.Helper()
	row, err := q.SingleSource(bg, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func mustTopK(t *testing.T, q Querier, u NodeID, k int) []Scored {
	t.Helper()
	top, err := q.TopK(bg, u, k)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func mustSourceTop(t *testing.T, q Querier, u NodeID, limit int) []Scored {
	t.Helper()
	top, err := q.SourceTop(bg, u, limit)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func mustBatch(t *testing.T, q Querier, us []NodeID) [][]float64 {
	t.Helper()
	rows, err := q.SingleSourceBatch(bg, us)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestQuickstartFlow(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	ix, err := Build(g, WithEps(0.05), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 0 and 1 are in-twins of nothing (no in-neighbors), so their
	// similarity is 0; node 2's only in-pair is (0,1).
	if got := mustPair(t, ix, 0, 1); got != 0 {
		t.Fatalf("s(0,1) = %v, want 0 (both have no in-neighbors)", got)
	}
	if got := mustPair(t, ix, 2, 2); math.Abs(got-1) > ix.ErrorBound() {
		t.Fatalf("s(2,2) = %v", got)
	}
}

func TestAccuracyAgainstExact(t *testing.T) {
	g := testGraph(40, 220, 2)
	ix, err := Build(g, WithEps(0.05), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ExactAllPairs(g, ix.C(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			got := mustPair(t, ix, NodeID(i), NodeID(j))
			if d := math.Abs(got - truth.At(i, j)); d > ix.ErrorBound() {
				t.Fatalf("error %v at (%d,%d) exceeds %v", d, i, j, ix.ErrorBound())
			}
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	g := testGraph(60, 360, 4)
	ix, err := Build(g, WithEps(0.05), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	// Reference answers single-threaded.
	want := make([]float64, 60)
	for v := 0; v < 60; v++ {
		want[v] = mustPair(t, ix, 7, NodeID(v))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for v := 0; v < 60; v++ {
					got, err := ix.SimRank(bg, 7, NodeID(v))
					if err != nil || got != want[v] {
						errs <- "concurrent query mismatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

func TestSingleSourceAndTopK(t *testing.T) {
	g := testGraph(50, 300, 6)
	ix, err := Build(g, WithEps(0.05), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	scores := mustSource(t, ix, 3)
	if len(scores) != 50 {
		t.Fatalf("single-source returned %d scores", len(scores))
	}
	top := mustTopK(t, ix, 3, 5)
	if len(top) > 5 {
		t.Fatalf("TopK returned %d", len(top))
	}
	for i, s := range top {
		if s.Node == 3 {
			t.Fatal("TopK includes the query node")
		}
		if i > 0 && top[i-1].Score < s.Score {
			t.Fatal("TopK not in descending order")
		}
		if math.Abs(scores[s.Node]-s.Score) > ix.ErrorBound() {
			t.Fatal("TopK scores disagree with SingleSource")
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	g := testGraph(10, 40, 8)
	ix, err := Build(g, WithEps(0.1), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustTopK(t, ix, 0, 0); len(got) != 0 {
		t.Fatal("TopK(k=0) returned results")
	}
	if got := mustTopK(t, ix, 0, 1000); len(got) > 9 {
		t.Fatalf("TopK overflow: %d results", len(got))
	}
}

// Every Querier method must reject out-of-range nodes with the shared
// sentinel, before any work happens — the in-memory fast path used to
// index straight into CSR arrays.
func TestErrNodeRangeUniform(t *testing.T) {
	g := testGraph(10, 40, 80)
	ix, err := Build(g, WithEps(0.1), WithSeed(81))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/range.sling"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	dx, err := NewDynamic(g, &DynamicOptions{NumWalks: 16}, WithEps(0.1), WithSeed(81))
	if err != nil {
		t.Fatal(err)
	}
	defer dx.Close()

	for _, bad := range []NodeID{-1, 10, 999} {
		for _, q := range []Querier{ix, di, dx} {
			name := q.Meta().Name
			if _, err := q.SimRank(bg, bad, 0); !errors.Is(err, ErrNodeRange) {
				t.Fatalf("%s: SimRank(%d, 0) err = %v, want ErrNodeRange", name, bad, err)
			}
			if _, err := q.SimRank(bg, 0, bad); !errors.Is(err, ErrNodeRange) {
				t.Fatalf("%s: SimRank(0, %d) err = %v, want ErrNodeRange", name, bad, err)
			}
			if _, err := q.SingleSource(bg, bad, nil); !errors.Is(err, ErrNodeRange) {
				t.Fatalf("%s: SingleSource(%d) err = %v, want ErrNodeRange", name, bad, err)
			}
			if _, err := q.SingleSourceBatch(bg, []NodeID{0, bad}); !errors.Is(err, ErrNodeRange) {
				t.Fatalf("%s: SingleSourceBatch err = %v, want ErrNodeRange", name, err)
			}
			if _, err := q.TopK(bg, bad, 3); !errors.Is(err, ErrNodeRange) {
				t.Fatalf("%s: TopK(%d) err = %v, want ErrNodeRange", name, bad, err)
			}
			if _, err := q.SourceTop(bg, bad, 3); !errors.Is(err, ErrNodeRange) {
				t.Fatalf("%s: SourceTop(%d) err = %v, want ErrNodeRange", name, bad, err)
			}
		}
	}
}

// A pre-cancelled context returns context.Canceled from every method of
// every backend, before any work.
func TestPreCancelledContext(t *testing.T) {
	g := testGraph(12, 50, 82)
	ix, err := Build(g, WithEps(0.1), WithSeed(83))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/cancel.sling"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	dx, err := NewDynamic(g, &DynamicOptions{NumWalks: 16}, WithEps(0.1), WithSeed(83))
	if err != nil {
		t.Fatal(err)
	}
	defer dx.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []Querier{ix, di, dx} {
		name := q.Meta().Name
		if _, err := q.SimRank(ctx, 0, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: SimRank err = %v, want context.Canceled", name, err)
		}
		if _, err := q.SingleSource(ctx, 0, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: SingleSource err = %v, want context.Canceled", name, err)
		}
		if _, err := q.SingleSourceBatch(ctx, []NodeID{0, 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: SingleSourceBatch err = %v, want context.Canceled", name, err)
		}
		if _, err := q.TopK(ctx, 0, 3); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: TopK err = %v, want context.Canceled", name, err)
		}
		if _, err := q.SourceTop(ctx, 0, 3); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: SourceTop err = %v, want context.Canceled", name, err)
		}
	}
}

// Meta must describe each backend consistently, with the build options'
// c.
func TestQuerierMeta(t *testing.T) {
	g := testGraph(15, 60, 84)
	ix, err := Build(g, WithC(0.7), WithEps(0.1), WithSeed(85))
	if err != nil {
		t.Fatal(err)
	}
	m := ix.Meta()
	if m.Name != "memory" || m.Nodes != 15 || m.C != 0.7 || ix.C() != 0.7 || m.Eps != ix.ErrorBound() || m.Clamped || m.Epoch != 0 {
		t.Fatalf("memory meta wrong: %+v", m)
	}
	path := t.TempDir() + "/meta.sling"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	dm := di.Meta()
	if dm.Name != "disk" || dm.Nodes != 15 || dm.C != m.C || dm.Eps != m.Eps || dm.Clamped {
		t.Fatalf("disk meta wrong: %+v", dm)
	}
	dx, err := NewDynamic(g, &DynamicOptions{NumWalks: 16}, WithEps(0.1), WithSeed(85))
	if err != nil {
		t.Fatal(err)
	}
	defer dx.Close()
	ym := dx.Meta()
	if ym.Name != "dynamic" || !ym.Clamped || ym.Epoch != 1 {
		t.Fatalf("dynamic meta wrong: %+v", ym)
	}
	if _, err := dx.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := dx.Meta().Epoch; got != 2 {
		t.Fatalf("epoch after rebuild = %d, want 2", got)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	g := testGraph(30, 180, 10)
	ix, err := Build(g, WithEps(0.06), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/roundtrip.sling"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(path, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := NodeID(0); i < 30; i++ {
		for j := NodeID(0); j < 30; j += 3 {
			if a, b := mustPair(t, ix, i, j), mustPair(t, ix2, i, j); a != b {
				t.Fatalf("round trip changed s(%d,%d)", i, j)
			}
		}
	}
}

func TestWriteToReadIndex(t *testing.T) {
	g := testGraph(20, 100, 12)
	ix, err := Build(g, WithEps(0.08), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := ReadIndex(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Bytes() != ix.Bytes() {
		t.Fatal("byte accounting changed over serialization")
	}
}

func TestOpenDisk(t *testing.T) {
	g := testGraph(40, 240, 14)
	ix, err := Build(g, WithEps(0.06), WithSeed(15))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/disk.sling"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if di.Bytes() >= ix.Bytes() {
		t.Fatal("disk mode not smaller in memory than full index")
	}
	for i := NodeID(0); i < 40; i += 3 {
		for j := NodeID(0); j < 40; j += 5 {
			if got, want := mustPair(t, di, i, j), mustPair(t, ix, i, j); got != want {
				t.Fatalf("disk s(%d,%d)=%v, memory %v", i, j, got, want)
			}
		}
	}
}

func TestLoadEdgeList(t *testing.T) {
	in := "# demo\n5 7\n7 9\n5 7\n"
	g, labels, err := LoadEdgeList(bytes.NewReader([]byte(in)), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if labels[0] != 5 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestBuildWithStats(t *testing.T) {
	g := testGraph(30, 180, 16)
	_, st, err := BuildWithStats(g, WithEps(0.06), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || st.HPPushes == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestBuildOutOfCoreFacade(t *testing.T) {
	g := testGraph(30, 180, 18)
	mem, err := Build(g, WithEps(0.06), WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	ooc, err := BuildOutOfCore(g, t.TempDir(), 1<<20, WithEps(0.06), WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	for i := NodeID(0); i < 30; i += 2 {
		for j := NodeID(0); j < 30; j += 3 {
			if mustPair(t, mem, i, j) != mustPair(t, ooc, i, j) {
				t.Fatalf("out-of-core differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 1}})
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d", g.NumEdges())
	}
}

func TestDiskIndexSingleSourceFacade(t *testing.T) {
	g := testGraph(40, 240, 20)
	ix, err := Build(g, WithEps(0.06), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/dss.sling"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	want := mustSource(t, ix, 9)
	got := mustSource(t, di, 9)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("disk single-source differs at %d", v)
		}
	}
}

func TestSimilarPairsFacade(t *testing.T) {
	g := testGraph(40, 200, 22)
	ix, err := Build(g, WithEps(0.08), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	pairs := ix.SimilarPairs(0.2)
	for i, p := range pairs {
		if p.Score < 0.2 || p.U >= p.V {
			t.Fatalf("bad pair %+v", p)
		}
		if want := mustPair(t, ix, p.U, p.V); want != p.Score {
			t.Fatalf("join score %v disagrees with SimRank %v", p.Score, want)
		}
		if i > 0 && pairs[i-1].Score < p.Score {
			t.Fatal("not sorted")
		}
	}
}

func TestSingleSourceBatchMatchesSerialFacade(t *testing.T) {
	g := testGraph(60, 300, 21)
	// Workers > 1 so the facade batch actually fans out.
	ix, err := Build(g, WithEps(0.08), WithSeed(21), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	us := []NodeID{0, 5, 5, 17, 59, 3}
	batch := mustBatch(t, ix, us)
	if len(batch) != len(us) {
		t.Fatalf("got %d rows", len(batch))
	}
	for i, u := range us {
		want := mustSource(t, ix, u)
		for v := range want {
			if batch[i][v] != want[v] {
				t.Fatalf("row %d (u=%d) node %d: %v != %v", i, u, v, batch[i][v], want[v])
			}
		}
	}
}

// Cancelling mid-batch must stop the fan-out: a cancelled context makes
// the batch return ctx.Err() rather than burning through all sources.
func TestSingleSourceBatchCancellation(t *testing.T) {
	g := testGraph(40, 200, 25)
	ix, err := Build(g, WithEps(0.1), WithSeed(25), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	us := make([]NodeID, 64)
	if _, err := ix.SingleSourceBatch(ctx, us); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
}

func TestSourceTopSemantics(t *testing.T) {
	g := testGraph(50, 250, 23)
	ix, err := Build(g, WithEps(0.08), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	scores := mustSource(t, ix, 8)
	top := mustSourceTop(t, ix, 8, 5)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("SourceTop returned %d results", len(top))
	}
	// u itself is included (s(u,u) ~ 1) and must lead the list.
	if top[0].Node != 8 {
		t.Fatalf("SourceTop head is node %d, want the source itself", top[0].Node)
	}
	for i := range top {
		if top[i].Score != scores[top[i].Node] {
			t.Fatal("SourceTop scores disagree with SingleSource")
		}
		if i > 0 && (top[i].Score > top[i-1].Score ||
			(top[i].Score == top[i-1].Score && top[i].Node < top[i-1].Node)) {
			t.Fatal("SourceTop not in (score desc, node asc) order")
		}
	}
	// No node outside the result may beat the tail.
	tail := top[len(top)-1]
	for v, sc := range scores {
		in := false
		for _, e := range top {
			if e.Node == NodeID(v) {
				in = true
				break
			}
		}
		if !in && sc > tail.Score && len(top) == 5 {
			t.Fatalf("node %d (score %v) beats kept tail %v", v, sc, tail.Score)
		}
	}
}

func TestFacadeParallelMatchesSerial(t *testing.T) {
	g := testGraph(60, 300, 25)
	ix, err := Build(g, WithEps(0.08), WithSeed(25), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	us := []NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	wantBatch := mustBatch(t, ix, us)
	wantPair := mustPair(t, ix, 3, 9)
	wantTop := mustTopK(t, ix, 2, 6)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if got, err := ix.SimRank(bg, 3, 9); err != nil || got != wantPair {
					errs <- "SimRank drift under concurrency"
					return
				}
				top, err := ix.TopK(bg, 2, 6)
				if err != nil || len(top) != len(wantTop) {
					errs <- "TopK length drift under concurrency"
					return
				}
				for j := range top {
					if top[j] != wantTop[j] {
						errs <- "TopK drift under concurrency"
						return
					}
				}
				batch, err := ix.SingleSourceBatch(bg, us)
				if err != nil {
					errs <- "batch error under concurrency"
					return
				}
				for r := range batch {
					for v := range batch[r] {
						if batch[r][v] != wantBatch[r][v] {
							errs <- "SingleSourceBatch drift under concurrency"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

// diskTestIndex builds an index, saves it, and opens it disk-resident
// with the given options.
func diskTestIndex(t *testing.T, g *Graph, seed uint64, o *DiskOptions) (*Index, *DiskIndex) {
	t.Helper()
	ix, err := Build(g, WithEps(0.06), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/disk.sling"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDiskWithOptions(path, g, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { di.Close() })
	return ix, di
}

// The acceptance bar for the concurrent disk engine: >= 8 goroutines of
// mixed disk queries (single-pair, single-source, top-k, source-top,
// batch) against one shared DiskIndex, byte-identical to the in-memory
// index. Run under -race in CI.
func TestDiskIndexConcurrentMixedQueries(t *testing.T) {
	g := testGraph(60, 360, 26)
	ix, di := diskTestIndex(t, g, 27, &DiskOptions{Workers: 4})
	wantPair := mustPair(t, ix, 4, 11)
	wantVec := mustSource(t, ix, 9)
	wantTop := mustTopK(t, ix, 3, 6)
	wantSrc := mustSourceTop(t, ix, 8, 5)
	us := []NodeID{2, 7, 1, 8, 2, 8}
	wantBatch := mustBatch(t, ix, us)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, err := di.SimRank(bg, 4, 11); err != nil || got != wantPair {
					errs <- "disk SimRank drift"
					return
				}
				vec, err := di.SingleSource(bg, 9, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				for v := range wantVec {
					if vec[v] != wantVec[v] {
						errs <- "disk SingleSource drift"
						return
					}
				}
				top, err := di.TopK(bg, 3, 6)
				if err != nil || len(top) != len(wantTop) {
					errs <- "disk TopK drift"
					return
				}
				for j := range top {
					if top[j] != wantTop[j] {
						errs <- "disk TopK entry drift"
						return
					}
				}
				src, err := di.SourceTop(bg, 8, 5)
				if err != nil || len(src) != len(wantSrc) {
					errs <- "disk SourceTop drift"
					return
				}
				for j := range src {
					if src[j] != wantSrc[j] {
						errs <- "disk SourceTop entry drift"
						return
					}
				}
				batch, err := di.SingleSourceBatch(bg, us)
				if err != nil {
					errs <- err.Error()
					return
				}
				for r := range batch {
					for v := range batch[r] {
						if batch[r][v] != wantBatch[r][v] {
							errs <- "disk SingleSourceBatch drift"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

// A positioned-read fault after open is an error on every query family,
// never a score. The entries region is truncated away under an open
// ReadAt index, so every fetch reads past the end of the file. A mapped
// index is out of scope: truncating a mapped file is SIGBUS by design.
func TestDiskReadAtFaultIsError(t *testing.T) {
	g := testGraph(40, 240, 32)
	ix, err := Build(g, WithEps(0.06), WithSeed(33))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/fault.sling"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDiskWithOptions(path, g, &DiskOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-8*di.NumEntries()); err != nil {
		t.Fatal(err)
	}
	check := func(family string, gotAnswer bool, err error) {
		t.Helper()
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want io.EOF or io.ErrUnexpectedEOF", family, err)
		}
		if gotAnswer {
			t.Errorf("%s returned an answer beside its error", family)
		}
	}
	score, err := di.SimRank(bg, 3, 7)
	check("SimRank", score != 0, err)
	vec, err := di.SingleSource(bg, 3, nil)
	check("SingleSource", vec != nil, err)
	top, err := di.TopK(bg, 3, 5)
	check("TopK", top != nil, err)
	top, err = di.SourceTop(bg, 3, 5)
	check("SourceTop", top != nil, err)
	frag, err := di.Fragment(bg, 3)
	check("Fragment", frag != nil, err)
	rows, err := di.SingleSourceBatch(bg, []NodeID{1, 2, 3, 4, 5})
	check("SingleSourceBatch", rows != nil, err)
}

// Facade disk TopK/SourceTop/batch must mirror the in-memory facade.
func TestDiskIndexTopKAndBatchFacade(t *testing.T) {
	g := testGraph(50, 300, 30)
	ix, di := diskTestIndex(t, g, 31, &DiskOptions{Workers: 3})
	for u := NodeID(0); u < 50; u += 11 {
		gotTop := mustTopK(t, di, u, 6)
		wantTop := mustTopK(t, ix, u, 6)
		if len(gotTop) != len(wantTop) {
			t.Fatalf("TopK(%d) length %d vs %d", u, len(gotTop), len(wantTop))
		}
		for i := range gotTop {
			if gotTop[i] != wantTop[i] {
				t.Fatalf("TopK(%d) entry %d mismatch", u, i)
			}
		}
		gotSrc := mustSourceTop(t, di, u, 4)
		wantSrc := mustSourceTop(t, ix, u, 4)
		if len(gotSrc) != len(wantSrc) {
			t.Fatalf("SourceTop(%d) length %d vs %d", u, len(gotSrc), len(wantSrc))
		}
		for i := range gotSrc {
			if gotSrc[i] != wantSrc[i] {
				t.Fatalf("SourceTop(%d) entry %d mismatch", u, i)
			}
		}
	}
	us := []NodeID{0, 13, 26, 39, 49, 13}
	got := mustBatch(t, di, us)
	want := mustBatch(t, ix, us)
	for i := range us {
		for v := range want[i] {
			if got[i][v] != want[i][v] {
				t.Fatalf("batch row %d differs at %d", i, v)
			}
		}
	}
	if di.NumEntries() == 0 {
		t.Fatal("NumEntries not surfaced")
	}
	if di.Graph() != g {
		t.Fatal("Graph not surfaced")
	}
	if di.ErrorBound() != ix.ErrorBound() || di.C() != ix.C() {
		t.Fatal("parameter accessors disagree with memory index")
	}
}
