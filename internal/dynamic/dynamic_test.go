package dynamic

import (
	"testing"
	"time"

	"sling/internal/core"
	"sling/internal/graph"
	"sling/internal/rng"
)

// randomGraph returns a random directed graph and the edge set it was
// built from (the test's mirror of the edge set Dynamic publishes as its
// current graph).
func randomGraph(n, m int, seed uint64) (*graph.Graph, map[uint64]struct{}) {
	r := rng.New(seed)
	edges := make(map[uint64]struct{})
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if _, dup := edges[edgeKey(u, v)]; dup {
			continue
		}
		edges[edgeKey(u, v)] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.Build(), edges
}

// graphFromSet rebuilds a CSR graph from a mirrored edge set.
func graphFromSet(n int, edges map[uint64]struct{}) *graph.Graph {
	b := graph.NewBuilder(n)
	for k := range edges {
		b.AddEdge(graph.NodeID(k>>32), graph.NodeID(uint32(k)))
	}
	return b.Build()
}

// applyRandomOps drives a random add/remove mix through d, mirroring the
// applied ops into edges, and returns how many ops changed the graph.
// About a third of the ops are deliberate no-ops or invalid.
func applyRandomOps(t *testing.T, d *Dynamic, edges map[uint64]struct{}, n, count int, seed uint64) int {
	t.Helper()
	r := rng.New(seed)
	applied := 0
	for i := 0; i < count; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		var did bool
		var err error
		switch r.Intn(6) {
		case 0, 1, 2: // add (sometimes a duplicate, sometimes a self-loop)
			did, err = d.AddEdge(u, v)
			if err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
			}
			if did != !contains(edges, u, v) {
				t.Fatalf("AddEdge(%d,%d) applied=%v, mirror disagrees", u, v, did)
			}
			edges[edgeKey(u, v)] = struct{}{}
		case 3, 4: // remove (sometimes nonexistent)
			did, err = d.RemoveEdge(u, v)
			if err != nil {
				t.Fatalf("RemoveEdge(%d,%d): %v", u, v, err)
			}
			if did != contains(edges, u, v) {
				t.Fatalf("RemoveEdge(%d,%d) applied=%v, mirror disagrees", u, v, did)
			}
			delete(edges, edgeKey(u, v))
		default: // out-of-range IDs must error without mutating
			if _, err = d.AddEdge(graph.NodeID(n)+u, v); err == nil {
				t.Fatal("out-of-range AddEdge accepted")
			}
		}
		if did {
			applied++
		}
	}
	return applied
}

// applyRandomBatches sends count multi-op Apply batches through d and
// mirrors every op into edges in batch order. Each batch adds and then
// removes one edge among random ops and may carry an out-of-range op, so
// an op must be decided against the ops staged before it in its batch.
func applyRandomBatches(t *testing.T, d *Dynamic, edges map[uint64]struct{}, n, count int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	randomOp := func() Op {
		return Op{Add: r.Intn(2) == 0, From: graph.NodeID(r.Intn(n)), To: graph.NodeID(r.Intn(n))}
	}
	for b := 0; b < count; b++ {
		var ops []Op
		for i := r.Intn(3); i > 0; i-- {
			ops = append(ops, randomOp())
		}
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		ops = append(ops, Op{Add: true, From: u, To: v}, Op{From: u, To: v})
		for i := r.Intn(3); i > 0; i-- {
			ops = append(ops, randomOp())
		}
		if r.Intn(3) == 0 {
			ops = append(ops, Op{Add: true, From: graph.NodeID(n) + u, To: v})
		}
		res, applied, err := d.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		want := 0
		for i, op := range ops {
			if int(op.From) >= n {
				if res[i].Err == nil || res[i].Applied {
					t.Fatalf("batch %d op %d: out-of-range op gave %+v", b, i, res[i])
				}
				continue
			}
			did := op.Add != contains(edges, op.From, op.To)
			if op.Add {
				edges[edgeKey(op.From, op.To)] = struct{}{}
			} else {
				delete(edges, edgeKey(op.From, op.To))
			}
			if res[i].Applied != did || res[i].Err != nil {
				t.Fatalf("batch %d op %+v: result %+v, mirror says applied=%v", b, op, res[i], did)
			}
			if did {
				want++
			}
		}
		if applied != want {
			t.Fatalf("batch %d: applied = %d, mirror counts %d", b, applied, want)
		}
	}
}

// checkMirror requires d's published graph to pass the CSR invariants
// and to hold exactly the mirrored edge set.
func checkMirror(t *testing.T, d *Dynamic, edges map[uint64]struct{}) {
	t.Helper()
	g := d.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("published graph: %v", err)
	}
	if g.NumEdges() != len(edges) {
		t.Fatalf("published graph has %d edges, mirror %d", g.NumEdges(), len(edges))
	}
	g.Edges(func(from, to graph.NodeID) bool {
		if !contains(edges, from, to) {
			t.Fatalf("published graph holds %d->%d, mirror does not", from, to)
		}
		return true
	})
}

func contains(edges map[uint64]struct{}, u, v graph.NodeID) bool {
	_, ok := edges[edgeKey(u, v)]
	return ok
}

// TestRebuildEquivalence is the core property test: for random update
// sequences on random graphs, a Dynamic index after a forced rebuild
// returns byte-identical results — pair, single-source, top-k, source-top
// and batch — to a fresh core.Build of the mutated graph with the same
// options. Dynamic clamps scores into [0, 1], so the fresh baseline goes
// through the identical clamp (which is the identity wherever the raw
// index stays in range).
func TestRebuildEquivalence(t *testing.T) {
	cases := []struct {
		n, m, ops int
		seed      uint64
	}{
		{n: 20, m: 60, ops: 30, seed: 1},
		{n: 40, m: 160, ops: 60, seed: 2},
		{n: 70, m: 350, ops: 120, seed: 3},
	}
	for _, tc := range cases {
		g, edges := randomGraph(tc.n, tc.m, tc.seed)
		opts := core.Options{Eps: 0.08, Seed: 7 + tc.seed}
		d, err := New(g, Options{Build: opts, NumWalks: 64})
		if err != nil {
			t.Fatal(err)
		}
		applyRandomOps(t, d, edges, tc.n, tc.ops, tc.seed+100)
		applyRandomBatches(t, d, edges, tc.n, tc.ops/4, tc.seed+200)
		checkMirror(t, d, edges)
		if _, err := d.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.Epoch != 2 || st.AffectedNodes != 0 || st.StaleOps != 0 {
			t.Fatalf("post-rebuild stats not clean: %+v", st)
		}

		mutated := graphFromSet(tc.n, edges)
		if got, want := d.Graph().NumEdges(), mutated.NumEdges(); got != want {
			t.Fatalf("n=%d: dynamic graph has %d edges, mirror %d", tc.n, got, want)
		}
		fresh, err := core.Build(mutated, &opts)
		if err != nil {
			t.Fatal(err)
		}

		pool := fresh.NewScratchPool()
		r := rng.New(tc.seed + 999)
		for q := 0; q < 50; q++ {
			u, v := graph.NodeID(r.Intn(tc.n)), graph.NodeID(r.Intn(tc.n))
			score, err := pool.SimRank(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := d.SimRank(u, v), clamp01(score); got != want {
				t.Fatalf("n=%d: SimRank(%d,%d) = %v, fresh build %v", tc.n, u, v, got, want)
			}
		}
		sources := make([]graph.NodeID, 6)
		for i := range sources {
			sources[i] = graph.NodeID(r.Intn(tc.n))
		}
		for _, u := range sources {
			got := d.SingleSource(u, nil)
			want, err := pool.SingleSource(u, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != clamp01(want[v]) {
					t.Fatalf("n=%d: SingleSource(%d)[%d] = %v, fresh %v", tc.n, u, v, got[v], want[v])
				}
			}
			wantVec := make([]float64, len(want))
			for v, s := range want {
				wantVec[v] = clamp01(s)
			}
			gotTop := d.TopK(u, 7)
			wantTop := core.SelectTop(wantVec, 7, u)
			if len(gotTop) != len(wantTop) {
				t.Fatalf("n=%d: TopK(%d) lengths %d vs %d", tc.n, u, len(gotTop), len(wantTop))
			}
			for i := range wantTop {
				if gotTop[i] != wantTop[i] {
					t.Fatalf("n=%d: TopK(%d)[%d] = %+v, fresh %+v", tc.n, u, i, gotTop[i], wantTop[i])
				}
			}
			gotST := d.SourceTop(u, 5)
			wantST := core.SelectTop(wantVec, 5, -1)
			for i := range wantST {
				if gotST[i] != wantST[i] {
					t.Fatalf("n=%d: SourceTop(%d)[%d] = %+v, fresh %+v", tc.n, u, i, gotST[i], wantST[i])
				}
			}
		}
		rows, err := d.SingleSourceBatch(nil, sources, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range sources {
			want, err := pool.SingleSource(u, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if rows[i][v] != clamp01(want[v]) {
					t.Fatalf("n=%d: batch row %d (source %d) diverges at %d", tc.n, i, u, v)
				}
			}
		}
		d.Close()
	}
}

// Updates must route affected queries off the static index immediately:
// the frontier holds the dirty node plus its forward BFS, and queries on
// clean pairs still answer identically to the pre-update index.
func TestAffectedFrontierRouting(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 and an isolated far pair 4 -> 5.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	g := b.Build()
	d, err := New(g, Options{Build: core.Options{Eps: 0.1, Seed: 3}, NumWalks: 32, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before45 := d.SimRank(4, 5)

	// Adding 3 -> 1 changes node 1's in-neighborhood: 1 and its forward
	// reach {2, 3} become affected; {0, 4, 5} stay clean.
	if did, err := d.AddEdge(3, 1); err != nil || !did {
		t.Fatalf("AddEdge(3,1) = %v, %v", did, err)
	}
	aff := d.AffectedNodes()
	want := []graph.NodeID{1, 2, 3}
	if len(aff) != len(want) {
		t.Fatalf("affected = %v, want %v", aff, want)
	}
	for i := range want {
		if aff[i] != want[i] {
			t.Fatalf("affected = %v, want %v", aff, want)
		}
	}
	if got := d.SimRank(4, 5); got != before45 {
		t.Fatalf("clean pair answer drifted: %v vs %v", got, before45)
	}
	if st := d.Stats(); st.AffectedNodes != 3 || st.StaleOps != 1 || st.Epoch != 1 {
		t.Fatalf("stats after update: %+v", st)
	}

	// The affected pair is served from the mutated graph: 2's only
	// in-neighbor gained company, so the estimate must see edge 3 -> 1.
	got := d.SimRank(1, 2)
	if got < 0 || got > 1 {
		t.Fatalf("affected estimate out of range: %v", got)
	}
}

// A threshold-configured Dynamic must rebuild in the background and come
// back clean without any explicit Rebuild call.
func TestBackgroundRebuildThreshold(t *testing.T) {
	g, edges := randomGraph(30, 100, 5)
	d, err := New(g, Options{Build: core.Options{Eps: 0.1, Seed: 2}, NumWalks: 16, RebuildThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	applyRandomOps(t, d, edges, 30, 12, 77)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d.Stats()
		if st.Rebuilds >= 1 && !st.RebuildRunning && st.StaleOps < 5 {
			if st.Epoch < 2 {
				t.Fatalf("rebuild completed but epoch = %d", st.Epoch)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background rebuild never completed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Old epochs drain via refcount: a query pinning the pre-swap epoch holds
// the drained counter at zero until it releases.
func TestEpochDrainRefcount(t *testing.T) {
	g, _ := randomGraph(20, 60, 9)
	d, err := New(g, Options{Build: core.Options{Eps: 0.1, Seed: 4}, NumWalks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	w := d.acquire() // a long-running query pins epoch 1
	if _, err := d.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().EpochsDrained; got != 0 {
		t.Fatalf("epoch drained while still referenced: %d", got)
	}
	d.release(w.gen)
	if got := d.Stats().EpochsDrained; got != 1 {
		t.Fatalf("epochs drained = %d after release, want 1", got)
	}
}

// Close cancels the rebuild machinery: rebuilds and updates error out,
// triggers refuse, queries keep answering.
func TestCloseStopsRebuilds(t *testing.T) {
	g, _ := randomGraph(20, 60, 11)
	d, err := New(g, Options{Build: core.Options{Eps: 0.1, Seed: 4}, NumWalks: 16})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := d.Rebuild(); err != ErrClosed {
		t.Fatalf("Rebuild after Close = %v, want ErrClosed", err)
	}
	if d.TriggerRebuild() {
		t.Fatal("TriggerRebuild started after Close")
	}
	if _, _, err := d.Apply([]Op{{Add: true, From: 0, To: 1}}); err != ErrClosed {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
	if s := d.SimRank(0, 1); s < 0 || s > 1 {
		t.Fatalf("query after Close out of range: %v", s)
	}
}

// Apply must be all-batch-one-snapshot: per-op results line up with the
// request, invalid ops fail individually, and a batch that nets to zero
// applied ops publishes nothing new.
func TestApplyBatchSemantics(t *testing.T) {
	g, _ := randomGraph(10, 20, 13)
	d, err := New(g, Options{Build: core.Options{Eps: 0.1, Seed: 6}, NumWalks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, applied, err := d.Apply([]Op{
		{Add: true, From: 0, To: 9},    // fresh edge
		{Add: true, From: 0, To: 9},    // duplicate in same batch: no-op
		{From: 0, To: 9},               // removes what the batch added
		{Add: true, From: 3, To: 3},    // self-loop is legal
		{Add: true, From: -1, To: 2},   // invalid
		{Add: true, From: 4, To: 1000}, // invalid
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Applied != true || res[1].Applied != false || res[2].Applied != true {
		t.Fatalf("add/dup/remove results wrong: %+v", res[:3])
	}
	if res[4].Err == nil || res[5].Err == nil {
		t.Fatalf("invalid ops did not error: %+v", res[4:])
	}
	if res[4].Applied || res[5].Applied {
		t.Fatal("invalid ops marked applied")
	}
	if applied < 2 || applied > 3 {
		t.Fatalf("applied = %d, want 2 or 3", applied)
	}
	if d.Graph().HasEdge(0, 9) {
		t.Fatal("edge 0->9 survived its removal")
	}
}

// A swap can leave a backlog at or above the threshold (ops that arrived
// while the rebuild ran); the trigger must re-arm itself rather than wait
// for the next Apply call that may never come.
func TestRetriggerAfterSwapBacklog(t *testing.T) {
	g, _ := randomGraph(20, 60, 15)
	d, err := New(g, Options{Build: core.Options{Eps: 0.1, Seed: 8}, NumWalks: 16, RebuildThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Reproduce the post-swap state directly: pending ops at the
	// threshold with no rebuild running and no Apply forthcoming. Only
	// their count matters to the trigger.
	d.mu.Lock()
	d.pending = make([]Op, 3)
	d.mu.Unlock()
	d.retriggerIfStale()
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().Rebuilds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backlog at threshold did not re-trigger a rebuild")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := d.Stats(); st.StaleOps != 0 {
		t.Fatalf("backlog not cleared after re-triggered rebuild: %+v", st)
	}
}
