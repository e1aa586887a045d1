package main

import (
	"math"
	"sort"

	"sling"
	"sling/internal/rng"
)

// Request keys are drawn from streams seeded by the benchmark's --seed,
// so the same seed replays the same requests. Every draw goes through
// internal/rng, the repository's one seeded generator.

// rankByInDegree orders g's nodes by in-degree, highest first, ties by
// ascending ID: rank 1 is the most popular key.
func rankByInDegree(g *sling.Graph) []sling.NodeID {
	n := g.NumNodes()
	ranked := make([]sling.NodeID, n)
	for i := range ranked {
		ranked[i] = sling.NodeID(i)
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		return g.InDegree(ranked[a]) > g.InDegree(ranked[b])
	})
	return ranked
}

// zipf draws ranked nodes with P(rank i) ∝ 1/i^s, i = 1..n. With s = 0
// every rank is equally likely.
type zipf struct {
	r      *rng.Source
	cdf    []float64 // cdf[i] = P(rank <= i+1); cdf[n-1] = 1
	ranked []sling.NodeID
}

func newZipf(r *rng.Source, ranked []sling.NodeID, s float64) *zipf {
	n := len(ranked)
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1
	return &zipf{r: r, cdf: cdf, ranked: ranked}
}

// rank draws a 0-based rank.
func (z *zipf) rank() int {
	i := sort.SearchFloat64s(z.cdf, z.r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

func (z *zipf) next() sling.NodeID { return z.ranked[z.rank()] }

// pair draws two distinct popular nodes.
func (z *zipf) pair() (u, v sling.NodeID) {
	u = z.next()
	for {
		if v = z.next(); v != u {
			return u, v
		}
	}
}

// uniformPair draws u != v uniformly from [0, n).
func uniformPair(r *rng.Source, n int) (u, v sling.NodeID) {
	u = sling.NodeID(r.Intn(n))
	v = sling.NodeID(r.Intn(n - 1))
	if v >= u {
		v++
	}
	return u, v
}
