package core

import (
	"sling/internal/bernoulli"
	"sling/internal/graph"
	"sling/internal/rng"
	"sling/internal/walk"
)

// Correction-factor estimation (Section 4.3 and 5.1 of the paper).
//
// d_k is the probability that two √c-walks from k never meet after step 0.
// By Equation (14),
//
//	d_k = 1 − c/|I(k)| − c·μ,   μ = (1/|I(k)|²)·Σ_{i≠j∈I(k)} s(i, j),
//
// and μ is the mean of the Bernoulli experiment "draw i, j uniformly from
// I(k); report whether i ≠ j and fresh √c-walks from i and j meet".
// Estimating μ within ε* = ε_d/c makes d̃_k accurate within ε_d.
//
// Before it samples, estimateD tries the walk-meeting bound: with P_t(a)
// the t-step distribution of a plain reverse walk from the a-th
// in-neighbour (mass at a node with no in-neighbours dropped), two
// √c-walks from in-neighbours a ≠ b are both at y after t steps with
// probability c^t·P_t(a)(y)·P_t(b)(y), so a union bound over the meeting
// step gives
//
//	μ ≤ U = |I(k)|⁻²·Σ_{t≥1} c^t·Σ_{a≠b} ⟨P_t(a), P_t(b)⟩.
//
// When U ≤ ε*, μ̂ = 0 is within ε* surely and nothing is sampled
// (README, "Building the index: where the time goes").

// boundRounding is the share of ε* the walk-meeting bound sets aside for
// float64 rounding. Every quantity the bound compares is built from
// exact inputs by additions, multiplications and divisions of
// nonnegative numbers, fewer than 2³⁴ roundings deep within
// maxBoundPushes pushes, so the exact bound is at most the computed one
// times 1 + 2⁻¹⁸; certifying only up to ε*·(1 − 2⁻¹⁶) keeps the exact
// bound under ε* (README).
const boundRounding = 0x1p-16

// maxBoundPushes caps the bound's push budget, which is otherwise the
// certificate's n₀, so its rounding depth stays within what boundRounding
// covers. n₀ reaches it only when ε* < ~10⁻⁸.
const maxBoundPushes = 1 << 30

// boundEntry is one node of an in-neighbour's reverse-walk distribution.
type boundEntry struct {
	node graph.NodeID
	mass float64
}

// boundLevel holds P_t(a) for the in-neighbours a whose walks can still
// step: each one's entries form a run e[end[r−1]:end[r]], one per node.
type boundLevel struct {
	e   []boundEntry
	end []int
}

// dScratch is one worker's state for the walk-meeting bound, reused
// across nodes so the bound does not allocate once warm.
type dScratch struct {
	// sum is S_t(y) summed over the runs merged so far at this level; it
	// is all zero between levels.
	sum []float64
	// pos[y] is where y sits in the current run of next. A stale value is
	// harmless: it counts only if it points into the current run at an
	// entry for y.
	pos       []int32
	cur, next boundLevel
}

func newDScratch(n int) *dScratch {
	return &dScratch{sum: make([]float64, n), pos: make([]int32, n)}
}

// certifies reports whether the walk-meeting bound for a node with
// in-neighbours ins (at least one) is at most limit, pushing the
// in-neighbours' distributions one level at a time, and returns the
// pushes made. It gives up once the levels summed so far pass limit, or
// before an in-list that would take the pushes past budget.
func (s *dScratch) certifies(g *graph.Graph, ins []graph.NodeID, c, limit float64, budget int) (bool, int) {
	cur, next := &s.cur, &s.next
	cur.e, cur.end = cur.e[:0], cur.end[:0]
	for _, i := range ins {
		if g.InDegree(i) > 0 {
			cur.e = append(cur.e, boundEntry{node: i, mass: 1})
			cur.end = append(cur.end, len(cur.e))
		}
	}
	d := float64(len(ins))
	// Σ_{a≠b} is twice the sum over a < b, which needs no subtraction.
	scale := 2 / (d * d)
	var (
		u      float64 // the bound's levels 1..T
		ct     = 1.0   // c^T
		pushes int
	)
	for {
		// Mass never grows, so past level T each walk set keeps at most
		// the mass m_a now at nodes it can step from, and the levels
		// after T add at most scale·c^(T+1)/(1−c)·Σ_{a<b} m_a·m_b. A
		// single surviving walk set makes that 0.
		var pre, pairs float64
		lo := 0
		for _, hi := range cur.end {
			m := 0.0
			for _, e := range cur.e[lo:hi] {
				m += e.mass
			}
			pairs += m * pre
			pre += m
			lo = hi
		}
		if u+scale*pairs*ct*c/(1-c) <= limit {
			return true, pushes
		}
		if u > limit {
			return false, pushes
		}

		// Level T+1: push each run's mass one reverse step, merging it per
		// node, then add ⟨P_{T+1}(a), S⟩ over the runs before a.
		next.e, next.end = next.e[:0], next.end[:0]
		var cross float64
		lo = 0
		for _, hi := range cur.end {
			start := len(next.e)
			for _, x := range cur.e[lo:hi] {
				in := g.InNeighbors(x.node)
				if pushes+len(in) > budget {
					for _, e := range next.e[:start] {
						s.sum[e.node] = 0
					}
					return false, pushes
				}
				pushes += len(in)
				share := x.mass / float64(len(in))
				for _, y := range in {
					if p := int(s.pos[y]); p >= start && p < len(next.e) && next.e[p].node == y {
						next.e[p].mass += share
					} else {
						s.pos[y] = int32(len(next.e))
						next.e = append(next.e, boundEntry{node: y, mass: share})
					}
				}
			}
			for _, e := range next.e[start:] {
				cross += e.mass * s.sum[e.node]
				s.sum[e.node] += e.mass
			}
			next.end = append(next.end, len(next.e))
			lo = hi
		}
		ct *= c
		u += scale * cross * ct

		// Clear S, and keep only the entries whose walks can step again
		// and the runs that keep any.
		kept, runs := 0, 0
		lo = 0
		for _, hi := range next.end {
			from := kept
			for _, e := range next.e[lo:hi] {
				s.sum[e.node] = 0
				if g.InDegree(e.node) > 0 {
					next.e[kept] = e
					kept++
				}
			}
			if kept > from {
				next.end[runs] = kept
				runs++
			}
			lo = hi
		}
		next.e, next.end = next.e[:kept], next.end[:runs]
		s.cur, s.next = s.next, s.cur
	}
}

// estimateD returns d̃_k with |d̃_k − d_k| ≤ εd with probability ≥ 1−δd,
// the √c-walk pairs it drew and the bound's pushes. When the walk-meeting
// bound certifies μ ≤ ε* (always so when at most one in-neighbour has
// in-edges) it answers μ̂ = 0, within ε_d surely, and draws nothing; the
// bound gives up after n₀ = ⌈ln(2/δd)/ε*⌉ pushes, the pairs the zero-hit
// certificate would draw. Otherwise, from the (Seed, k) stream, with
// basic=false it uses bernoulli.Estimate, the adaptive Algorithm 4 behind
// a zero-hit certificate (expected O((μ+ε*)/ε*²·log(1/δd)) samples, and
// n₀ when no pair meets); with basic=true the fixed Algorithm 1
// (O(1/ε*²·log(1/δd)) samples). The pair count feeds the Section 5.1
// ablation.
func estimateD(g *graph.Graph, k graph.NodeID, prm resolved, s *dScratch) (dk float64, pairs, pushes int) {
	ins := g.InNeighbors(k)
	if len(ins) == 0 {
		return 1, 0, 0
	}
	epsStar := prm.epsD / prm.c
	if epsStar >= 1 {
		epsStar = 0.999
	}
	budget := min(bernoulli.CertificateSamples(epsStar, prm.deltaD), maxBoundPushes)
	certified, pushes := s.certifies(g, ins, prm.c, epsStar*(1-boundRounding), budget)
	mean := 0.0
	if !certified {
		w := walk.New(g, prm.c, rng.New(rng.MixSeed(prm.seed, int(k))))
		n := len(ins)
		sampler := func() bool {
			i := ins[w.Rng().Intn(n)]
			j := ins[w.Rng().Intn(n)]
			if i == j {
				return false
			}
			return w.PairMeetsAfterStart(i, j)
		}
		var (
			res bernoulli.Result
			err error
		)
		if prm.basicEstimator {
			res, err = bernoulli.EstimateFixed(sampler, epsStar, prm.deltaD)
		} else {
			res, err = bernoulli.Estimate(sampler, epsStar, prm.deltaD)
		}
		if err != nil {
			// resolve() already validated the parameters; an error here is
			// a programming bug, not a runtime condition.
			panic("core: invalid d-estimation parameters: " + err.Error())
		}
		mean, pairs = res.Mean, res.Samples
	}
	d := 1 - prm.c/float64(len(ins)) - prm.c*mean
	// d_k is a probability; clamp estimation noise into [0, 1].
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return d, pairs, pushes
}

// ExactDFromScores computes the exact correction factors from a
// ground-truth score oracle via Equation (14); a test and evaluation
// helper mirroring linearize.ExactD but living with the walk-based
// interpretation it proves (Lemma 5: d_k is the k-th diagonal of D).
func ExactDFromScores(g *graph.Graph, c float64, scores func(i, j int) float64) []float64 {
	n := g.NumNodes()
	d := make([]float64, n)
	for k := 0; k < n; k++ {
		ins := g.InNeighbors(graph.NodeID(k))
		deg := len(ins)
		if deg == 0 {
			d[k] = 1
			continue
		}
		sum := 0.0
		for _, i := range ins {
			for _, j := range ins {
				if i != j {
					sum += scores(int(i), int(j))
				}
			}
		}
		d[k] = 1 - c/float64(deg) - c*sum/float64(deg*deg)
	}
	return d
}
