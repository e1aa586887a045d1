package workload

import (
	"sort"

	"sling/internal/graph"
)

// degreeSkew returns the ratio of the 99th-percentile in-degree to the
// average in-degree — a crude heavy-tail indicator the tests use to check
// the generator families differ as intended.
func degreeSkew(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 || g.NumEdges() == 0 {
		return 0
	}
	degs := make([]int, n)
	for v := 0; v < n; v++ {
		degs[v] = g.InDegree(int32(v))
	}
	sort.Ints(degs)
	p99 := degs[n-1-n/100]
	avg := float64(g.NumEdges()) / float64(n)
	return float64(p99) / avg
}
