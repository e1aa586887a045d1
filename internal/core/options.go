// Package core implements SLING (SimRank via Local Updates and Sampling),
// the index structure of Tian & Xiao, SIGMOD 2016.
//
// A SLING index stores, for every node v, an approximate correction factor
// d̃_v (the probability that two √c-walks from v never meet after step 0)
// and a constant-size set H(v) of approximate hitting probabilities
// h̃^(ℓ)(v, k). By Lemma 4 of the paper,
//
//	s(u, v) = Σ_ℓ Σ_k h^(ℓ)(u, k) · d_k · h^(ℓ)(v, k),
//
// so a single-pair query is a sparse join of H(u) and H(v) in O(1/ε) time,
// and a single-source query is a local-update traversal (Algorithm 6) in
// O(m·log²(1/ε)) time — both with a provable ε additive-error guarantee.
//
// The package implements the full paper: Algorithms 1-6, the Section 5
// optimizations (adaptive d̃ estimation, space reduction, accuracy
// enhancement, parallel and out-of-core construction), and a serialized,
// disk-resident query mode.
package core

import (
	"fmt"
	"math"
	"math/bits"
)

// DefaultC is the decay factor used throughout the paper's experiments.
const DefaultC = 0.6

// DefaultEps is the paper's experimental worst-case error target.
const DefaultEps = 0.025

// DefaultGamma is the γ constant of Section 5.2: step-1/2 hitting
// probabilities are dropped from H(v) whenever a two-hop traversal from v
// touches at most γ/θ edges.
const DefaultGamma = 10

// valueRounding is ρ, the share of the error budget spent on storing
// each h̃ as a float32. Round-to-nearest moves a stored value by at most
// 2⁻²⁴ relative; a pair term multiplies two stored values and a
// propagation seed uses one (exact step-1/2 entries and d̃ stay float64),
// and the terms of one answer sum to at most 1 + ε, so rounding adds at
// most ((1+2⁻²⁴)²−1)(1+ε) < 2⁻²² to any answer's error (README).
const valueRounding = 0x1p-22

// Options configures Build. The zero value reproduces the paper's
// experimental configuration (c = 0.6, ε = 0.025, δ_d = 1/n²).
type Options struct {
	// C is the SimRank decay factor in (0,1). Default 0.6.
	C float64
	// Eps is the worst-case additive error guaranteed per score.
	// Default 0.025. Used to derive EpsD and Theta when those are zero:
	// valueRounding is set aside for float32 storage and the rest,
	// ε' = ε − valueRounding, is split evenly between the d̃ error term
	// ε_d/(1−c) and the HP truncation term 2√c·θ/((1−√c)(1−c)).
	Eps float64
	// EpsD is the additive error target for each correction factor d̃_k.
	// Default ε'(1−c)/2 (≈0.005 at the paper's settings).
	EpsD float64
	// Theta is the hitting-probability pruning threshold θ of Algorithm 2.
	// Default ε'(1−√c)(1−c)/(4√c) (≈0.000727 at the paper's settings).
	Theta float64
	// Delta is the overall preprocessing failure probability; each d̃_k is
	// estimated with failure budget δ_d = Delta/n. Default 1/n (so
	// δ_d = 1/n², as in Section 7.1). The adaptive estimator splits δ_d in
	// half: δ_d/2 for its zero-hit certificate (μ̂ = 0 after
	// ⌈ln(2/δ_d)/ε*⌉ walk pairs with no meeting, ε* = ε_d/c) and δ_d/2 for
	// Algorithm 4 on the same walk pairs.
	Delta float64
	// Workers bounds build parallelism (Section 5.4). Default 1. The d̃
	// and HP passes hand target nodes to workers one at a time (ForEach),
	// so they stay load-balanced on skewed graphs; the index is
	// bit-identical at any worker count, and one worker runs on the
	// calling goroutine.
	Workers int
	// Seed fixes all sampling. The estimate for node k depends only on
	// (Seed, k), never on scheduling, so builds are reproducible at any
	// worker count.
	Seed uint64
	// BasicEstimator selects Algorithm 1 (fixed sample count) instead of
	// the adaptive Algorithm 4, behind its zero-hit certificate, for d̃
	// estimation. Exists for the paper's Section 5.1 comparison; the
	// adaptive estimator is strictly better in practice.
	BasicEstimator bool
	// DisableSpaceReduction turns off the Section 5.2 optimization that
	// drops recomputable step-1/2 HPs from the index.
	DisableSpaceReduction bool
	// Enhance enables the Section 5.3 accuracy enhancement: the largest
	// low-in-degree HPs are marked at build time and expanded one extra
	// step at query time, tightening accuracy at no asymptotic cost.
	Enhance bool
	// Gamma is the γ of Section 5.2. Default 10.
	Gamma float64
}

// resolved is a fully-defaulted, validated parameter set.
type resolved struct {
	c      float64
	sqrtC  float64
	eps    float64
	epsD   float64
	theta  float64
	delta  float64
	deltaD float64 // per-node failure budget delta/n
	gamma  float64

	workers        int
	seed           uint64
	basicEstimator bool
	spaceReduction bool
	enhance        bool

	// The stored-key split (keyLayout): no stored step exceeds maxStep,
	// and the low nodeBits bits of a stored key name the node.
	maxStep  int
	nodeBits uint
}

// resolve validates o against a graph of n nodes and fills defaults.
func (o *Options) resolve(n int) (resolved, error) {
	var r resolved
	r.c = DefaultC
	r.eps = DefaultEps
	r.gamma = DefaultGamma
	r.workers = 1
	r.spaceReduction = true
	if o != nil {
		if o.C != 0 {
			r.c = o.C
		}
		if o.Eps != 0 {
			r.eps = o.Eps
		}
		r.epsD = o.EpsD
		r.theta = o.Theta
		r.delta = o.Delta
		if o.Gamma != 0 {
			r.gamma = o.Gamma
		}
		if o.Workers > 0 {
			r.workers = o.Workers
		}
		r.seed = o.Seed
		r.basicEstimator = o.BasicEstimator
		r.spaceReduction = !o.DisableSpaceReduction
		r.enhance = o.Enhance
	}
	if r.c <= 0 || r.c >= 1 {
		return r, fmt.Errorf("core: decay factor %v out of (0,1)", r.c)
	}
	if r.eps <= 0 || r.eps >= 1 {
		return r, fmt.Errorf("core: eps %v out of (0,1)", r.eps)
	}
	r.sqrtC = math.Sqrt(r.c)
	budget := r.eps - valueRounding
	if r.epsD == 0 {
		r.epsD = budget * (1 - r.c) / 2
	}
	if r.theta == 0 {
		r.theta = budget * (1 - r.sqrtC) * (1 - r.c) / (4 * r.sqrtC)
	}
	if r.epsD <= 0 || r.epsD >= 1 {
		return r, fmt.Errorf("core: epsD %v out of (0,1)", r.epsD)
	}
	if r.theta <= 0 || r.theta >= 1 {
		return r, fmt.Errorf("core: theta %v out of (0,1)", r.theta)
	}
	if r.delta == 0 {
		nn := n
		if nn < 2 {
			nn = 2
		}
		r.delta = 1 / float64(nn)
	}
	if r.delta <= 0 || r.delta >= 1 {
		return r, fmt.Errorf("core: delta %v out of (0,1)", r.delta)
	}
	nn := n
	if nn < 1 {
		nn = 1
	}
	r.deltaD = r.delta / float64(nn)
	if r.gamma <= 0 {
		return r, fmt.Errorf("core: gamma %v must be positive", r.gamma)
	}
	return r, r.keyLayout(n)
}

// keyLayout derives the stored-key split from c and θ and checks that it
// can address n nodes. A stored step never exceeds maxStoredStep (beyond
// it (√c)^ℓ ≤ θ), so the step takes the bits.Len(maxStep) high bits of a
// 32-bit key and the node the nodeBits = 32 − bits.Len(maxStep) low bits:
// 27 at the defaults (134M nodes), 25 at c = 0.8.
func (r *resolved) keyLayout(n int) error {
	if steps := math.Log(r.theta) / math.Log(r.sqrtC); !(steps >= 0 && steps < 1<<30) {
		return fmt.Errorf("core: theta %v at c %v leaves no room for node IDs in a 32-bit key", r.theta, r.c)
	}
	r.maxStep = maxStoredStep(r.sqrtC, r.theta)
	r.nodeBits = uint(32 - bits.Len(uint(r.maxStep)))
	if int64(n) > 1<<r.nodeBits {
		return fmt.Errorf("core: %d nodes exceed the %d a 32-bit key addresses at c %v, theta %v (%d node bits)",
			n, int64(1)<<r.nodeBits, r.c, r.theta, r.nodeBits)
	}
	return nil
}

// ErrorBound returns the worst-case additive error implied by the resolved
// (εd, θ) pair under Theorem 1 plus float32 value storage:
// ε = ε_d/(1−c) + 2√c·θ/((1−√c)(1−c)) + valueRounding.
func (r resolved) errorBound() float64 {
	return r.epsD/(1-r.c) + 2*r.sqrtC*r.theta/((1-r.sqrtC)*(1-r.c)) + valueRounding
}
