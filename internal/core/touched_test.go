package core

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"sling/internal/graph"
	"sling/internal/rng"
)

// skewedGraph draws m edges from uniform sources to targets skewed
// towards small IDs, so low-ID nodes have large, scattered two-hop
// in-neighborhoods and high-ID nodes small ones.
func skewedGraph(n, m int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(1+r.Intn(n))))
	}
	return b.Build()
}

// steps12Reference recomputes node v's exact step-1/2 entries with the
// same summation order as appendExactSteps12 and emits step 2 by fully
// sorting the touched nodes. It reports whether v's step-2 emission
// should have walked the bitmap (t·bits.Len(t) >= spanned words).
func steps12Reference(g *graph.Graph, sqrtC float64, v graph.NodeID) ([]uint64, []float64, bool) {
	ins := g.InNeighbors(v)
	if len(ins) == 0 {
		return nil, nil, false
	}
	var keys []uint64
	var vals []float64
	h1 := sqrtC / float64(len(ins))
	for _, u := range ins {
		keys = append(keys, entryKey(1, u))
		vals = append(vals, h1)
	}
	sums := map[int32]float64{}
	var order []int32
	for _, u := range ins {
		uins := g.InNeighbors(u)
		if len(uins) == 0 {
			continue
		}
		add := sqrtC * h1 / float64(len(uins))
		for _, y := range uins {
			if _, ok := sums[y]; !ok {
				order = append(order, y)
			}
			sums[y] += add
		}
	}
	slices.Sort(order)
	for _, y := range order {
		keys = append(keys, entryKey(2, y))
		vals = append(vals, sums[y])
	}
	if len(order) == 0 {
		return keys, vals, false
	}
	t := len(order)
	words := int(order[t-1]>>6 - order[0]>>6 + 1)
	return keys, vals, t*bits.Len(uint(t)) >= words
}

func sameEntries(ka []uint64, va []float64, kb []uint64, vb []float64) bool {
	if len(ka) != len(kb) || len(va) != len(vb) || len(ka) != len(va) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] || math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
			return false
		}
	}
	return true
}

// TestExactSteps12MatchesSortedReference checks the sort-free step-2
// emission bitwise against a sorted reference for every node, over a
// graph where both the sort and the bitmap-walk branch occur, and that
// each call leaves the accumulator and the bitmap all-zero (a dirty
// word would corrupt the next gather on the same scratch).
func TestExactSteps12MatchesSortedReference(t *testing.T) {
	g := skewedGraph(1500, 4500, 41)
	x := buildIndex(t, g, &Options{Eps: 0.1, Seed: 41})
	s := x.NewScratch()
	var walks, sorts int
	var keys []uint64
	var vals []float64
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		keys, vals = x.appendExactSteps12(v, s, keys[:0], vals[:0])
		wantK, wantV, walk := steps12Reference(g, x.prm.sqrtC, v)
		if !sameEntries(keys, vals, wantK, wantV) {
			t.Fatalf("node %d: step-1/2 entries differ from the sorted reference", v)
		}
		if len(wantK) > len(g.InNeighbors(v)) {
			if walk {
				walks++
			} else {
				sorts++
			}
		}
		for i, a := range s.acc {
			if a != 0 {
				t.Fatalf("node %d: acc[%d] = %v left dirty", v, i, a)
			}
		}
		for w, word := range s.seen {
			if word != 0 {
				t.Fatalf("node %d: bitmap word %d = %#x left dirty", v, w, word)
			}
		}
	}
	if walks == 0 || sorts == 0 {
		t.Fatalf("want both emission branches, got %d bitmap walks and %d sorts", walks, sorts)
	}
}

func sameTopBits(a, b []TopEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// servedPool is one serving path under test: the engine over memory,
// ReadAt, or mmap.
type servedPool struct {
	name string
	p    *ScratchPool
}

// TestTouchedTopKMatchesDenseSelect checks the served top-k paths, which
// select over the propagation's hit list only, bitwise against
// SelectTop/SelectTopRange over the dense SingleSource vector: for every
// node, on the in-memory index and on the ReadAt and mmap disk indexes,
// with TopSlice and SourceSlice split into two node ranges.
func TestTouchedTopKMatchesDenseSelect(t *testing.T) {
	g := skewedGraph(300, 1500, 43)
	x, path := saveTestIndex(t, g, &Options{Eps: 0.05, Seed: 43, Enhance: true})
	backends := []servedPool{{"memory", x.NewScratchPool()}}
	readAt, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer readAt.Close()
	backends = append(backends, servedPool{"readat", readAt.NewScratchPool()})
	if MmapSupported() {
		mapped, err := OpenDiskIndexMmap(path, g)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		backends = append(backends, servedPool{"mmap", mapped.NewScratchPool()})
	}
	n := g.NumNodes()
	mid := n / 3
	mem := backends[0].p
	var dense []float64
	for _, b := range backends {
		for u := graph.NodeID(0); int(u) < n; u++ {
			dense = must(mem.SingleSource(u, dense))
			keys, vals, _ := x.FragmentOf(u, nil)
			for _, k := range []int{1, 10, n} {
				got, err := b.p.TopK(u, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := SelectTop(dense, k, u); !sameTopBits(got, want) {
					t.Fatalf("%s: TopK(%d, %d) = %v, dense select %v", b.name, u, k, got, want)
				}
				got, err = b.p.SourceTop(u, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := SelectTop(dense, k, -1); !sameTopBits(got, want) {
					t.Fatalf("%s: SourceTop(%d, %d) = %v, dense select %v", b.name, u, k, got, want)
				}
				for _, r := range [][2]int{{0, mid}, {mid, n}} {
					got := b.p.TopSlice(keys, vals, k, u, r[0], r[1])
					if want := SelectTopRange(dense, k, u, r[0], r[1]); !sameTopBits(got, want) {
						t.Fatalf("%s: TopSlice(%d, %d, %v) = %v, dense select %v", b.name, u, k, r, got, want)
					}
				}
			}
			for _, r := range [][2]int{{0, mid}, {mid, n}} {
				got := b.p.SourceSlice(keys, vals, r[0], r[1])
				if len(got) != r[1]-r[0] {
					t.Fatalf("%s: SourceSlice(%d, %v) has %d scores", b.name, u, r, len(got))
				}
				for i, sc := range got {
					if math.Float64bits(sc) != math.Float64bits(dense[r[0]+i]) {
						t.Fatalf("%s: SourceSlice(%d, %v)[%d] = %v, dense %v", b.name, u, r, i, sc, dense[r[0]+i])
					}
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPooledTopKAllocs pins the pooled top-k paths to exactly one
// allocation per call — the result slice — on the in-memory and the
// mapped disk index.
func TestPooledTopKAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := skewedGraph(300, 1500, 47)
	x, path := saveTestIndex(t, g, &Options{Eps: 0.05, Seed: 47, Enhance: true})
	backends := []servedPool{{"memory", x.NewScratchPool()}}
	if MmapSupported() {
		mapped, err := OpenDiskIndexMmap(path, g)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		backends = append(backends, servedPool{"mmap", mapped.NewScratchPool()})
	}
	const u = 3
	keys, vals, _ := x.FragmentOf(u, nil)
	if len(SelectTop(must(backends[0].p.SingleSource(u, nil)), 5, u)) == 0 {
		t.Fatal("test node has no similar nodes; pick another")
	}
	n := g.NumNodes()
	for _, b := range backends {
		calls := map[string]func(){
			"TopK":      func() { _, _ = b.p.TopK(u, 5) },
			"SourceTop": func() { _, _ = b.p.SourceTop(u, 5) },
			"TopSlice":  func() { b.p.TopSlice(keys, vals, 5, u, 0, n) },
		}
		for name, call := range calls {
			if allocs := testing.AllocsPerRun(100, call); allocs != 1 {
				t.Errorf("%s %s: %v allocs per call, want 1 (the result)", b.name, name, allocs)
			}
		}
	}
}
