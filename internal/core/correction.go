package core

import (
	"sling/internal/bernoulli"
	"sling/internal/graph"
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
// Estimating μ within ε_d/c makes d̃_k accurate within ε_d.

// dSampler returns the Bernoulli sampler above for node k, or nil when no
// sampling is needed because d_k is known exactly. That is so in three
// cases:
//
//   - |I(k)| = 0: no walk leaves k, so d_k = 1;
//   - |I(k)| = 1: there is no pair i ≠ j, so μ = 0 and d_k = 1 − c;
//   - at most one in-neighbor of k has in-edges: every pair i ≠ j holds
//     one whose walk cannot take step 1, so no two walks meet after
//     step 0, μ = 0 and d_k = 1 − c/|I(k)|.
//
// The third case covers the second; estimateD answers both from the
// formula, with the bits a sampled μ̂ = 0 gives.
func dSampler(g *graph.Graph, w *walk.Walker, k graph.NodeID) bernoulli.Sampler {
	ins := g.InNeighbors(k)
	if !twoCanStep(g, ins) {
		return nil
	}
	n := len(ins)
	return func() bool {
		i := ins[w.Rng().Intn(n)]
		j := ins[w.Rng().Intn(n)]
		if i == j {
			return false
		}
		return w.PairMeetsAfterStart(i, j)
	}
}

// twoCanStep reports whether at least two of ins have in-edges, the
// least a meeting after step 0 needs.
func twoCanStep(g *graph.Graph, ins []graph.NodeID) bool {
	stepping := 0
	for _, i := range ins {
		if g.InDegree(i) > 0 {
			stepping++
			if stepping == 2 {
				return true
			}
		}
	}
	return false
}

// estimateD returns d̃_k with |d̃_k − d_k| ≤ εd with probability ≥ 1−δd.
// Where dSampler finds d_k exact it draws nothing. Otherwise, with
// basic=false it uses bernoulli.Estimate, the adaptive Algorithm 4 behind
// a zero-hit certificate (expected O((μ+ε*)/ε*²·log(1/δd)) samples,
// ε* = εd/c, and ⌈ln(2/δd)/ε*⌉ when no pair meets); with basic=true the
// fixed Algorithm 1 (O(1/ε*²·log(1/δd)) samples). It also reports the
// number of √c-walk pairs consumed, for the Section 5.1 ablation.
func estimateD(g *graph.Graph, w *walk.Walker, k graph.NodeID, prm resolved) (dk float64, pairs int) {
	ins := g.InNeighbors(k)
	if len(ins) == 0 {
		return 1, 0
	}
	sampler := dSampler(g, w, k)
	if sampler == nil {
		return 1 - prm.c/float64(len(ins)), 0
	}
	epsStar := prm.epsD / prm.c
	if epsStar >= 1 {
		epsStar = 0.999
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
		// resolve() already validated the parameters; an error here is a
		// programming bug, not a runtime condition.
		panic("core: invalid d-estimation parameters: " + err.Error())
	}
	d := 1 - prm.c/float64(len(ins)) - prm.c*res.Mean
	// d_k is a probability; clamp estimation noise into [0, 1].
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return d, res.Samples
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
