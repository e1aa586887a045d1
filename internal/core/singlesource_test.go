package core

import (
	"math"
	"testing"

	"sling/internal/graph"
	"sling/internal/workload"
)

// unprunedSingleSource is Algorithm 6 with θ = 0: each step group ℓ of a
// gathered entry list is seeded into its own dense vector and hopped ℓ
// times along out-edges with nothing dropped. It is the reference the
// pruned fold is bounded against, not a serving path.
func unprunedSingleSource(x *Index, keys []uint64, vals []float64) []float64 {
	n := x.g.NumNodes()
	out := make([]float64, n)
	for lo := 0; lo < len(keys); {
		l := keyStep(keys[lo])
		rho := make([]float64, n)
		hi := lo
		for ; hi < len(keys) && keyStep(keys[hi]) == l; hi++ {
			k := keyNode(keys[hi])
			rho[k] += vals[hi] * x.d[k]
		}
		for t := 0; t < l; t++ {
			next := make([]float64, n)
			for v, r := range rho {
				for _, y := range x.g.OutNeighbors(graph.NodeID(v)) {
					next[y] += x.prm.sqrtC * r / float64(x.g.InDegree(y))
				}
			}
			rho = next
		}
		for v, r := range rho {
			out[v] += r
		}
		lo = hi
	}
	return out
}

// TestPropagationWithinBound pins the merged fold's pruning bound
// directly, without power-method ground truth: for every source and
// every node, the pruned score is at most the unpruned Algorithm 6 score
// and at least that minus θ·c/((1−c)(1−√c)).
func TestPropagationWithinBound(t *testing.T) {
	powerlaw, ok := workload.FamilyByName("powerlaw")
	if !ok {
		t.Fatal("no powerlaw family")
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", randomGraph(60, 360, 91)},
		{"powerlaw", powerlaw.Gen(80, 93)},
	}
	for _, tc := range graphs {
		for _, eps := range []float64{0.025, 0.1} {
			x := buildIndex(t, tc.g, &Options{Eps: eps, Seed: 95, Enhance: true})
			c, sqrtC, theta := x.prm.c, x.prm.sqrtC, x.prm.theta
			bound := theta * c / ((1 - c) * (1 - sqrtC))
			p := x.NewScratchPool()
			maxGap := 0.0
			for u := 0; u < tc.g.NumNodes(); u++ {
				keys, vals, _ := x.FragmentOf(graph.NodeID(u), nil)
				ref := unprunedSingleSource(x, keys, vals)
				got := must(p.SingleSource(graph.NodeID(u), nil))
				for v := range ref {
					gap := ref[v] - got[v]
					if gap < -1e-12 || gap > bound+1e-12 {
						t.Fatalf("%s eps=%v: s(%d,%d) = %v, unpruned %v: gap %v outside [0, %v]",
							tc.name, eps, u, v, got[v], ref[v], gap, bound)
					}
					maxGap = math.Max(maxGap, gap)
				}
			}
			t.Logf("%s eps=%v: max pruning gap %.3g of bound %.3g", tc.name, eps, maxGap, bound)
		}
	}
}
