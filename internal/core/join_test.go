package core

import (
	"testing"

	"sling/internal/graph"
)

// bruteJoin finds all pairs at or above tau by exhaustive Algorithm-3
// queries.
func bruteJoin(x *Index, tau float64) map[uint64]float64 {
	n := x.g.NumNodes()
	p := x.NewScratchPool()
	out := make(map[uint64]float64)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			score := must(p.SimRank(graph.NodeID(u), graph.NodeID(v)))
			if score >= tau {
				out[uint64(uint32(u))<<32|uint64(uint32(v))] = score
			}
		}
	}
	return out
}

func TestSimilarPairsMatchesBruteForce(t *testing.T) {
	g := randomGraph(60, 300, 161)
	x := buildIndex(t, g, &Options{Eps: 0.08, Seed: 163})
	for _, tau := range []float64{0.1, 0.3, 0.6} {
		want := bruteJoin(x, tau)
		got := x.SimilarPairs(tau)
		if len(got) != len(want) {
			t.Fatalf("tau=%v: join found %d pairs, brute force %d", tau, len(got), len(want))
		}
		for _, p := range got {
			key := uint64(uint32(p.U))<<32 | uint64(uint32(p.V))
			if want[key] != p.Score {
				t.Fatalf("tau=%v: pair (%d,%d) score %v, brute %v", tau, p.U, p.V, p.Score, want[key])
			}
		}
	}
}

func TestSimilarPairsSortedAndNormalized(t *testing.T) {
	g := randomGraph(50, 250, 165)
	x := buildIndex(t, g, &Options{Eps: 0.08, Seed: 167})
	pairs := x.SimilarPairs(0.1)
	for i, p := range pairs {
		if p.U >= p.V {
			t.Fatalf("pair %d not normalized: (%d,%d)", i, p.U, p.V)
		}
		if i > 0 && pairs[i-1].Score < p.Score {
			t.Fatal("pairs not sorted by descending score")
		}
		if p.Score < 0.1 {
			t.Fatalf("pair below threshold leaked: %v", p.Score)
		}
	}
}

func TestSimilarPairsHighThresholdEmptyOrSmall(t *testing.T) {
	g := randomGraph(40, 160, 169)
	x := buildIndex(t, g, &Options{Eps: 0.1, Seed: 171})
	pairs := x.SimilarPairs(0.99)
	want := bruteJoin(x, 0.99)
	if len(pairs) != len(want) {
		t.Fatalf("tau=0.99: %d vs brute %d", len(pairs), len(want))
	}
}

func TestSimilarPairsPanicsOnBadTau(t *testing.T) {
	g := randomGraph(10, 40, 173)
	x := buildIndex(t, g, &Options{Eps: 0.1, Seed: 175})
	for _, tau := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("tau=%v accepted", tau)
				}
			}()
			x.SimilarPairs(tau)
		}()
	}
}
