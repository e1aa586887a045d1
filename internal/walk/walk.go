// Package walk implements the random-walk machinery behind SimRank
// estimation: the √c-walks of SLING (Section 4.1 of the paper) and the
// truncated reverse random walks of the Monte Carlo baseline
// (Fogaras & Rácz).
//
// A √c-walk from u follows in-edges backwards; at every step it stops with
// probability 1−√c and otherwise moves to a uniformly random in-neighbor.
// Lemma 3 of the paper: s(u, v) equals the probability that independent
// √c-walks from u and v meet, i.e. occupy the same node at the same step.
// A walk stranded on a node with no in-neighbors stops there.
package walk

import (
	"fmt"
	"math"

	"sling/internal/graph"
	"sling/internal/rng"
)

// Walker generates random walks over a fixed graph with a fixed decay
// factor. It is not safe for concurrent use; create one per goroutine with
// independent rng streams.
type Walker struct {
	g     *graph.Graph
	sqrtC float64
	// goOn is ⌈√c·2⁵³⌉: a walk continues when the top 53 bits of a draw
	// are below it, which is exactly r.Bernoulli(√c) as one integer
	// compare.
	goOn uint64
	// bothOn is ⌈c·2⁵³⌉, the same compare for Bernoulli(c): two
	// independent √c-walks both continue a step with probability c.
	bothOn uint64
	// r is held by value so the per-step draw needs no pointer hop.
	r rng.Source
}

// New returns a Walker over g with decay factor c (0 < c < 1), drawing
// randomness from a copy of *r: the walker owns its stream from then on,
// and later draws from r do not move it (nor it r). Use Rng to reach the
// walker's own stream.
func New(g *graph.Graph, c float64, r *rng.Source) *Walker {
	if c <= 0 || c >= 1 {
		panic(fmt.Sprintf("walk: decay factor %v out of (0,1)", c))
	}
	sqrtC := math.Sqrt(c)
	return &Walker{g: g, sqrtC: sqrtC, goOn: threshold(sqrtC), bothOn: threshold(c), r: *r}
}

// threshold returns ⌈p·2⁵³⌉: a draw whose top 53 bits fall below it
// succeeds with probability exactly p, as in r.Bernoulli(p).
func threshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// Rng returns the walker's own random stream (the copy New took), so
// callers that interleave walks with other sampling (e.g. drawing
// in-neighbor pairs for SLING's correction factors) stay on one
// deterministic stream.
func (w *Walker) Rng() *rng.Source { return &w.r }

// step returns the next node of a √c-walk at v, or (-1, false) if the walk
// stops (by the 1−√c coin or because v has no in-neighbors).
func (w *Walker) step(v graph.NodeID) (graph.NodeID, bool) {
	if w.r.Uint64()>>11 >= w.goOn {
		return -1, false
	}
	ins := w.g.InNeighbors(v)
	if len(ins) == 0 {
		return -1, false
	}
	return ins[w.r.Intn(len(ins))], true
}

// SqrtCWalk appends the nodes of one √c-walk from u (starting with u
// itself as step 0) to buf and returns the extended slice.
func (w *Walker) SqrtCWalk(u graph.NodeID, buf []graph.NodeID) []graph.NodeID {
	buf = append(buf, u)
	cur := u
	for {
		next, ok := w.step(cur)
		if !ok {
			return buf
		}
		buf = append(buf, next)
		cur = next
	}
}

// PairMeets simulates two independent √c-walks from u and v and reports
// whether they meet (same node at the same step, including step 0).
// By Lemma 3 the true meeting probability is exactly s(u, v).
func (w *Walker) PairMeets(u, v graph.NodeID) bool {
	return u == v || w.PairMeetsAfterStart(u, v)
}

// PairMeetsAfterStart is PairMeets conditioned to ignore a meeting at step
// 0; it reports whether walks from u and v meet at step >= 1. It is the
// sampling primitive of Algorithms 1 and 4 (estimation of the correction
// factor dₖ), where the two walks start at distinct in-neighbors but may
// still collide later.
//
// The walks advance in lockstep, and a meeting needs both to continue at
// every step up to it. So each step draws one Bernoulli(c) coin for "both
// continue" instead of two independent Bernoulli(√c) coins, then a
// uniform in-neighbor for each walk: the meeting law is the same.
func (w *Walker) PairMeetsAfterStart(u, v graph.NodeID) bool {
	for {
		if w.r.Uint64()>>11 >= w.bothOn {
			return false
		}
		iu, iv := w.g.InNeighbors(u), w.g.InNeighbors(v)
		if len(iu) == 0 || len(iv) == 0 {
			return false
		}
		u, v = iu[w.r.Intn(len(iu))], iv[w.r.Intn(len(iv))]
		if u == v {
			return true
		}
	}
}

// MeetProbability estimates s(u, v) as the fraction of `samples`
// independent √c-walk pairs from u and v that meet (Lemma 3). It is the
// plain Monte-Carlo estimator SLING improves upon, retained as a test
// oracle and as a baseline in ablation benchmarks.
func (w *Walker) MeetProbability(u, v graph.NodeID, samples int) float64 {
	if samples <= 0 {
		panic("walk: MeetProbability needs a positive sample count")
	}
	hits := 0
	for i := 0; i < samples; i++ {
		if w.PairMeets(u, v) {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// ReverseWalk appends a plain reverse random walk from u truncated after t
// steps (so the result holds at most t+1 nodes, starting with u). Unlike a
// √c-walk there is no stopping coin: the walk only ends early when it
// reaches a node with no in-neighbors. This is the Monte Carlo baseline's
// walk (Section 3.2).
func (w *Walker) ReverseWalk(u graph.NodeID, t int, buf []graph.NodeID) []graph.NodeID {
	buf = append(buf, u)
	cur := u
	for step := 0; step < t; step++ {
		ins := w.g.InNeighbors(cur)
		if len(ins) == 0 {
			return buf
		}
		cur = ins[w.r.Intn(len(ins))]
		buf = append(buf, cur)
	}
	return buf
}

// FirstMeeting returns the first step at which two node sequences coincide,
// or -1 if they never do. Sequences are compared position-wise up to the
// shorter length.
func FirstMeeting(a, b []graph.NodeID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			return i
		}
	}
	return -1
}

// ExactHP computes the exact hitting-probability matrices of the paper's
// Section 4.2 up to step maxL (inclusive): result[ℓ][i][k] = h^(ℓ)(vᵢ, vₖ),
// the probability that a √c-walk from vᵢ occupies vₖ at step ℓ. It costs
// O(maxL·n·m) time and O(maxL·n²) space and exists as a ground-truth oracle
// for tests and for the error analyses of the evaluation; production code
// uses SLING's sparse local updates instead.
func ExactHP(g *graph.Graph, c float64, maxL int) [][][]float64 {
	n := g.NumNodes()
	sqrtC := math.Sqrt(c)
	res := make([][][]float64, maxL+1)
	for l := range res {
		res[l] = make([][]float64, n)
		for i := range res[l] {
			res[l][i] = make([]float64, n)
		}
	}
	for i := 0; i < n; i++ {
		res[0][i][i] = 1
	}
	// Recurrence (16): h^(ℓ+1)(vᵢ, vₖ) = √c/|I(vᵢ)| · Σ_{vₓ∈I(vᵢ)} h^(ℓ)(vₓ, vₖ).
	for l := 0; l < maxL; l++ {
		for i := 0; i < n; i++ {
			ins := g.InNeighbors(graph.NodeID(i))
			if len(ins) == 0 {
				continue
			}
			scale := sqrtC / float64(len(ins))
			row := res[l+1][i]
			for _, x := range ins {
				prev := res[l][x]
				for k := 0; k < n; k++ {
					row[k] += scale * prev[k]
				}
			}
		}
	}
	return res
}

// EmpiricalHP estimates h^(ℓ)(u, ·) for ℓ = 0..maxL from `samples`
// √c-walks, as a cross-check oracle for ExactHP and Algorithm 2.
func (w *Walker) EmpiricalHP(u graph.NodeID, maxL, samples int) [][]float64 {
	n := w.g.NumNodes()
	res := make([][]float64, maxL+1)
	for l := range res {
		res[l] = make([]float64, n)
	}
	buf := make([]graph.NodeID, 0, 16)
	for s := 0; s < samples; s++ {
		buf = w.SqrtCWalk(u, buf[:0])
		for l, node := range buf {
			if l > maxL {
				break
			}
			res[l][node]++
		}
	}
	inv := 1 / float64(samples)
	for l := range res {
		for k := range res[l] {
			res[l][k] *= inv
		}
	}
	return res
}
