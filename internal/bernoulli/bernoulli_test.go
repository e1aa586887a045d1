package bernoulli

import (
	"math"
	"testing"

	"sling/internal/rng"
)

func coin(r *rng.Source, p float64) Sampler {
	return func() bool { return r.Bernoulli(p) }
}

func TestValidation(t *testing.T) {
	s := coin(rng.New(1), 0.5)
	for _, bad := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}, {-0.2, 0.5}} {
		if _, err := Estimate(s, bad[0], bad[1]); err == nil {
			t.Fatalf("Estimate accepted eps=%v delta=%v", bad[0], bad[1])
		}
		if _, err := EstimateFixed(s, bad[0], bad[1]); err == nil {
			t.Fatalf("EstimateFixed accepted eps=%v delta=%v", bad[0], bad[1])
		}
	}
}

func TestFixedSampleCountFormula(t *testing.T) {
	// (2 + 0.1)/0.01 * log(2/0.01) = 210 * 5.298 = 1112.7 -> 1113.
	if got := FixedSamples(0.1, 0.01); got != 1113 {
		t.Fatalf("FixedSamples = %d, want 1113", got)
	}
}

func TestFirstBatchFormula(t *testing.T) {
	// 14/(3*0.1) * log(4/0.01) = 46.67 * 5.99 = 279.6 -> 280.
	if got := FirstBatchSamples(0.1, 0.01); got != 280 {
		t.Fatalf("FirstBatchSamples = %d, want 280", got)
	}
}

func TestCertificateFormula(t *testing.T) {
	// log(2/0.01)/0.1 = 52.98 -> 53.
	if got := CertificateSamples(0.1, 0.01); got != 53 {
		t.Fatalf("CertificateSamples = %d, want 53", got)
	}
	// The certificate's samples open Algorithm 4's pilot batch at δ/2,
	// so they must never outnumber it.
	for _, eps := range []float64{1e-4, 0.01, 0.3, 0.999} {
		for _, delta := range []float64{1e-12, 0.01, 0.5, 0.999} {
			if n0, nr := CertificateSamples(eps, delta), FirstBatchSamples(eps, delta/2); n0 > nr {
				t.Fatalf("eps=%v delta=%v: certificate %d > pilot batch %d", eps, delta, n0, nr)
			}
		}
	}
}

// The estimator must hit its accuracy target nearly always; test across a
// spread of true means including both phases of the adaptive algorithm.
func TestEstimateAccuracy(t *testing.T) {
	const eps, delta = 0.05, 0.05
	r := rng.New(42)
	for _, mu := range []float64{0, 0.01, 0.05, 0.2, 0.5, 0.9, 1} {
		fails := 0
		const trials = 60
		for i := 0; i < trials; i++ {
			res, err := Estimate(coin(r, mu), eps, delta)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Mean-mu) > eps {
				fails++
			}
		}
		// Allow a generous margin over delta*trials = 3.
		if fails > 8 {
			t.Fatalf("mu=%v: %d/%d estimates outside eps", mu, fails, trials)
		}
	}
}

func TestEstimateFixedAccuracy(t *testing.T) {
	const eps, delta = 0.05, 0.05
	r := rng.New(43)
	for _, mu := range []float64{0.02, 0.5, 0.97} {
		res, err := EstimateFixed(coin(r, mu), eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Mean-mu) > eps {
			t.Fatalf("mu=%v: estimate %v off by more than eps", mu, res.Mean)
		}
		if res.Samples != FixedSamples(eps, delta) {
			t.Fatalf("fixed sampler took %d samples, want %d", res.Samples, FixedSamples(eps, delta))
		}
	}
}

// The whole point of the certificate and Algorithm 4: when μ is small
// the estimator stops after the certificate's n₀ samples if none
// succeeds, and otherwise after Algorithm 4's pilot batch at δ/2, far
// below the fixed-size sampler either way.
func TestAdaptiveCheapWhenMeanSmall(t *testing.T) {
	const eps, delta = 0.01, 0.01
	r := rng.New(44)
	fixed := FixedSamples(eps, delta)
	n0, pilot := CertificateSamples(eps, delta), FirstBatchSamples(eps, delta/2)
	var certified, piloted int
	for i := 0; i < 20; i++ {
		res, err := Estimate(coin(r, 0.001), eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		if res.Samples*10 > fixed {
			t.Fatalf("adaptive used %d samples; fixed would use %d — no saving", res.Samples, fixed)
		}
		switch {
		case res.Mean == 0 && res.Samples == n0:
			certified++
		case res.Mean > 0 && res.Samples == pilot:
			piloted++
		default:
			t.Fatalf("small-mean case stopped at %d samples (mean %v); want %d with no hit or %d after the pilot batch",
				res.Samples, res.Mean, n0, pilot)
		}
	}
	// At μ = 0.001 the n₀ = 530 samples all fail with probability ~0.59,
	// so 20 runs take both exits.
	if certified == 0 || piloted == 0 {
		t.Fatalf("exits taken: %d certified, %d after the pilot batch; want both", certified, piloted)
	}
}

// With a large μ the second phase must engage and scale like μ/ε².
func TestAdaptiveSecondPhaseEngages(t *testing.T) {
	const eps, delta = 0.05, 0.05
	r := rng.New(45)
	res, err := Estimate(coin(r, 0.6), eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples <= FirstBatchSamples(eps, delta/2) {
		t.Fatalf("second phase did not engage for mu=0.6 (samples=%d)", res.Samples)
	}
	// Sanity: still bounded by a constant times the fixed count.
	if res.Samples > 2*FixedSamples(eps, delta) {
		t.Fatalf("adaptive used %d samples, way over fixed %d", res.Samples, FixedSamples(eps, delta))
	}
}

// Expected adaptive sample count grows with μ (the O((μ+ε)/ε²) shape).
func TestSampleCountMonotoneInMean(t *testing.T) {
	const eps, delta = 0.02, 0.05
	r := rng.New(46)
	avg := func(mu float64) float64 {
		total := 0
		const trials = 20
		for i := 0; i < trials; i++ {
			res, err := Estimate(coin(r, mu), eps, delta)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Samples
		}
		return float64(total) / trials
	}
	small, mid, large := avg(0.005), avg(0.2), avg(0.8)
	if !(small < mid && mid < large) {
		t.Fatalf("sample counts not monotone: %v, %v, %v", small, mid, large)
	}
}

func TestDegenerateAlwaysTrue(t *testing.T) {
	r := rng.New(47)
	res, err := Estimate(coin(r, 1), 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean != 1 {
		t.Fatalf("mean of constant-true sampler = %v", res.Mean)
	}
}

func TestDegenerateAlwaysFalse(t *testing.T) {
	r := rng.New(48)
	res, err := Estimate(coin(r, 0), 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean != 0 {
		t.Fatalf("mean of constant-false sampler = %v", res.Mean)
	}
	if want := CertificateSamples(0.1, 0.1); res.Samples != want {
		t.Fatalf("constant-false sampler took %d samples; the certificate stops it at %d", res.Samples, want)
	}
}

// The certificate answers 0 after n₀ failures. Just above ε that answer
// is wrong with probability (1−μ)^n₀ ≤ δ/2, and Algorithm 4 at δ/2 spends
// the other half, so the estimator's failure rate must stay within δ
// where the certificate is most often wrong. An n₀ half as large would
// fail ~0.3 of the runs at μ = 0.0505.
func TestZeroHitCertificateWorstCase(t *testing.T) {
	const eps, delta, trials = 0.05, 0.2, 4000
	for i, mu := range []float64{0.0505, 0.06, 0.1} {
		r := rng.New(uint64(500 + i))
		fails := 0
		for j := 0; j < trials; j++ {
			res, err := Estimate(coin(r, mu), eps, delta)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Mean-mu) > eps {
				fails++
			}
		}
		if rate := float64(fails) / trials; rate > delta {
			t.Errorf("mu=%v: failure rate %v over %d runs exceeds delta=%v", mu, rate, trials, delta)
		} else {
			t.Logf("mu=%v: failure rate %v", mu, rate)
		}
	}
}

func BenchmarkEstimateSmallMean(b *testing.B) {
	r := rng.New(1)
	s := coin(r, 0.01)
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(s, 0.02, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateFixedSmallMean(b *testing.B) {
	r := rng.New(1)
	s := coin(r, 0.01)
	for i := 0; i < b.N; i++ {
		if _, err := EstimateFixed(s, 0.02, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}
