// Package bernoulli estimates the mean of a Bernoulli distribution to a
// target additive error with asymptotically optimal sample counts.
//
// Estimate is the generalized form of Algorithm 4 of the SLING paper
// (Section 5.1), preceded by a zero-hit certificate. Its first stage draws
// n₀ = ⌈ln(2/δ)/ε⌉ samples and answers 0 if none succeeds: that answer
// is wrong only when μ > ε, with probability (1−μ)^n₀ ≤ e^(−εn₀) ≤ δ/2.
// Otherwise Algorithm 4 runs at δ/2 over the same sample sequence, the
// n₀ samples being the start of its pilot batch: a first batch of
// O(log(1/δ)/ε) samples yields a crude estimate μ̂; if μ̂ ≤ ε the crude
// estimate is already within ε, otherwise a second batch sized by the
// upper bound μ* = μ̂ + √(μ̂ε) brings the total to
// O((μ+ε)/ε² · log(1/δ)) — matching the Dagum-Karp-Luby-Ross lower bound
// (Lemma 11 of the paper) up to constants. SLING uses it to estimate each
// correction factor d_k from √c-walk pair collisions, where most nodes
// see no collision at all and the certificate alone settles them.
package bernoulli

import (
	"fmt"
	"math"
)

// Sampler produces one independent Bernoulli sample.
type Sampler func() bool

// Result reports an estimate and the number of samples it consumed.
type Result struct {
	Mean    float64
	Samples int
}

func validate(eps, delta float64) error {
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("bernoulli: eps %v out of (0,1)", eps)
	}
	if !(delta > 0 && delta < 1) {
		return fmt.Errorf("bernoulli: delta %v out of (0,1)", delta)
	}
	return nil
}

// FixedSamples returns the sample count of the non-adaptive estimator
// (Algorithm 1 of the paper in its generalized form):
// n = (2 + ε)/ε² · log(2/δ).
func FixedSamples(eps, delta float64) int {
	return int(math.Ceil((2 + eps) / (eps * eps) * math.Log(2/delta)))
}

// FirstBatchSamples returns the pilot batch size of Algorithm 4 run at
// failure probability δ: n = 14/(3ε) · log(4/δ). Estimate runs it at δ/2.
func FirstBatchSamples(eps, delta float64) int {
	return int(math.Ceil(14 / (3 * eps) * math.Log(4/delta)))
}

// CertificateSamples returns the size of Estimate's zero-hit certificate:
// n₀ = ⌈log(2/δ)/ε⌉, the fewest samples for which all of them failing
// has probability at most δ/2 whenever μ > ε. It never exceeds
// FirstBatchSamples(ε, δ/2).
func CertificateSamples(eps, delta float64) int {
	return int(math.Ceil(math.Log(2/delta) / eps))
}

// EstimateFixed estimates the mean with the non-adaptive sampler. With
// probability at least 1−δ the estimate has additive error at most ε.
func EstimateFixed(sample Sampler, eps, delta float64) (Result, error) {
	if err := validate(eps, delta); err != nil {
		return Result{}, err
	}
	n := FixedSamples(eps, delta)
	cnt := draw(sample, n)
	return Result{Mean: float64(cnt) / float64(n), Samples: n}, nil
}

// Estimate estimates the mean with the zero-hit certificate followed by
// the adaptive two-phase sampler (Algorithm 4, generalized) at δ/2.
// With probability at least 1−δ the estimate has additive error at most
// ε: it is wrong only if the certificate's n₀ samples all fail while
// μ > ε, or if Algorithm 4 on the same unconditioned sample sequence is
// wrong, and each of those has probability at most δ/2. The expected
// sample count is at most n₀ plus Algorithm 4's,
// O((μ+ε)/ε² · log(1/δ)); with no success it is exactly n₀.
func Estimate(sample Sampler, eps, delta float64) (Result, error) {
	if err := validate(eps, delta); err != nil {
		return Result{}, err
	}
	n0 := CertificateSamples(eps, delta)
	cnt := draw(sample, n0)
	if cnt == 0 {
		return Result{Mean: 0, Samples: n0}, nil
	}
	// Algorithm 4 at δ/2; the certificate's samples open its pilot batch.
	delta /= 2
	nr := FirstBatchSamples(eps, delta)
	cnt += draw(sample, nr-n0)
	muHat := float64(cnt) / float64(nr)
	if muHat <= eps {
		return Result{Mean: muHat, Samples: nr}, nil
	}
	// Second phase: μ* upper-bounds μ w.h.p.; size the total batch by it.
	muStar := muHat + math.Sqrt(muHat*eps)
	logTerm := math.Log(4 / delta)
	nStar := int(math.Ceil((2*muStar + 2.0/3.0*eps) / (eps * eps) * logTerm))
	if nStar <= nr {
		return Result{Mean: muHat, Samples: nr}, nil
	}
	cnt += draw(sample, nStar-nr)
	return Result{Mean: float64(cnt) / float64(nStar), Samples: nStar}, nil
}

// draw takes n samples and returns how many succeeded.
func draw(sample Sampler, n int) int {
	cnt := 0
	for i := 0; i < n; i++ {
		if sample() {
			cnt++
		}
	}
	return cnt
}
