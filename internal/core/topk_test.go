package core

import (
	"sort"
	"sync"
	"testing"

	"sling/internal/graph"
	"sling/internal/rng"
)

// sortTop is the reference top-k: materialize every positive candidate
// and fully sort by (score desc, node asc) — the behavior SelectTop's
// heap must reproduce exactly.
func sortTop(scores []float64, k int, skip graph.NodeID) []TopEntry {
	out := make([]TopEntry, 0, len(scores))
	for v, sc := range scores {
		if graph.NodeID(v) == skip || sc <= 0 {
			continue
		}
		out = append(out, TopEntry{Node: graph.NodeID(v), Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node < out[j].Node
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

func equalTop(a, b []TopEntry) bool {
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

func TestSelectTopMatchesFullSort(t *testing.T) {
	for _, seed := range []uint64{3, 4, 5} {
		g := randomGraph(60, 300, seed)
		x := buildIndex(t, g, &Options{Eps: 0.08, Seed: seed})
		p := x.NewScratchPool()
		var out []float64
		for u := graph.NodeID(0); u < 10; u++ {
			out = must(p.SingleSource(u, out))
			for _, k := range []int{1, 3, 10, 59, 60, 1000} {
				got := SelectTop(out, k, u)
				want := sortTop(out, k, u)
				if !equalTop(got, want) {
					t.Fatalf("seed %d u=%d k=%d: heap %v != sort %v", seed, u, k, got, want)
				}
			}
		}
	}
}

func TestSelectTopTies(t *testing.T) {
	// Many equal scores: the tie-break (ascending node ID) must be
	// deterministic regardless of heap eviction order.
	scores := make([]float64, 50)
	for i := range scores {
		scores[i] = 0.5
	}
	scores[7] = 0.9
	got := SelectTop(scores, 4, -1)
	want := []TopEntry{{7, 0.9}, {0, 0.5}, {1, 0.5}, {2, 0.5}}
	if !equalTop(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSelectTopEdgeCases(t *testing.T) {
	if got := SelectTop([]float64{0.3, 0.2}, 0, -1); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := SelectTop(nil, 5, -1); len(got) != 0 {
		t.Fatalf("empty scores returned %v", got)
	}
	// Non-positive scores and the skipped node are excluded even when
	// that leaves fewer than k results.
	got := SelectTop([]float64{0, -1, 0.25, 1}, 10, 3)
	want := []TopEntry{{2, 0.25}}
	if !equalTop(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestIndexTopKMatchesReference(t *testing.T) {
	g := randomGraph(80, 400, 9)
	x := buildIndex(t, g, &Options{Eps: 0.08, Seed: 9})
	p := x.NewScratchPool()
	ref := must(p.SingleSource(5, nil))
	got := must(p.TopK(5, 7))
	if want := sortTop(ref, 7, 5); !equalTop(got, want) {
		t.Fatalf("TopK %v, want %v", got, want)
	}
}

func TestSingleSourceBatchMatchesSerial(t *testing.T) {
	g := randomGraph(70, 350, 11)
	x := buildIndex(t, g, &Options{Eps: 0.08, Seed: 11})
	us := make([]graph.NodeID, 25)
	r := rng.New(17)
	for i := range us {
		us[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	p := x.NewScratchPool()
	serial := make([][]float64, len(us))
	for i, u := range us {
		serial[i] = must(p.SingleSource(u, nil))
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		batch, err := p.SingleSourceBatch(nil, us, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(us) {
			t.Fatalf("workers=%d: %d rows", workers, len(batch))
		}
		for i := range batch {
			for v := range batch[i] {
				if batch[i][v] != serial[i][v] {
					t.Fatalf("workers=%d row %d node %d: %v != serial %v",
						workers, i, v, batch[i][v], serial[i][v])
				}
			}
		}
	}
}

func TestAllPairsParallelMatchesSerial(t *testing.T) {
	g := randomGraph(50, 250, 13)
	// Workers is a build option; the same seed yields the identical index,
	// and a batch with workers <= 0 inherits the worker count for its row
	// fan-out. Every source's row makes the full score matrix.
	serialIx := buildIndex(t, g, &Options{Eps: 0.08, Seed: 13, Workers: 1})
	parallelIx := buildIndex(t, g, &Options{Eps: 0.08, Seed: 13, Workers: 4})
	us := make([]graph.NodeID, g.NumNodes())
	for i := range us {
		us[i] = graph.NodeID(i)
	}
	a, errA := serialIx.NewScratchPool().SingleSourceBatch(nil, us, 0)
	b, errB := parallelIx.NewScratchPool().SingleSourceBatch(nil, us, 0)
	if errA != nil || errB != nil {
		t.Fatalf("all pairs: %v / %v", errA, errB)
	}
	for u := range a {
		for v := range a[u] {
			if a[u][v] != b[u][v] {
				t.Fatalf("s(%d,%d): %v != %v", u, v, a[u][v], b[u][v])
			}
		}
	}
}

func TestScratchPoolConcurrentDeterminism(t *testing.T) {
	g := randomGraph(60, 300, 19)
	x := buildIndex(t, g, &Options{Eps: 0.08, Seed: 19})
	pool := x.NewScratchPool()
	wantPair := must(pool.SimRank(2, 3))
	wantTop := sortTop(must(pool.SingleSource(4, nil)), 5, 4)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if got, err := pool.SimRank(2, 3); err != nil || got != wantPair {
					errs <- "SimRank drift under concurrency"
					return
				}
				if got, err := pool.TopK(4, 5); err != nil || !equalTop(got, wantTop) {
					errs <- "TopK drift under concurrency"
					return
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
