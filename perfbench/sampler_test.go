package main

import (
	"math"
	"testing"

	"sling"
	"sling/internal/rng"
)

func ranks(n int) []sling.NodeID {
	r := make([]sling.NodeID, n)
	for i := range r {
		r[i] = sling.NodeID(i)
	}
	return r
}

func TestZipfSameSeedSameStream(t *testing.T) {
	a := newZipf(rng.New(7), ranks(500), zipfS)
	b := newZipf(rng.New(7), ranks(500), zipfS)
	c := newZipf(rng.New(8), ranks(500), zipfS)
	differs := false
	for i := 0; i < 10000; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("draw %d: seed 7 gave %d and %d", i, x, y)
		}
		differs = differs || x != z
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

// With s = 0 every rank has probability exactly 1/n, and a sample passes
// a chi-square test for uniformity.
func TestZipfZeroIsUniform(t *testing.T) {
	const n, draws = 50, 200000
	z := newZipf(rng.New(3), ranks(n), 0)
	for i, c := range z.cdf {
		if !sameBits(c, float64(i+1)/n) {
			t.Fatalf("cdf[%d] = %v, want %v", i, c, float64(i+1)/n)
		}
	}
	counts := make([]float64, n)
	for i := 0; i < draws; i++ {
		counts[z.rank()]++
	}
	chi2 := 0.0
	for _, c := range counts {
		d := c - draws/n
		chi2 += d * d / (draws / n)
	}
	// 49 degrees of freedom: the 0.999 quantile is about 85.4.
	if chi2 > 85.4 {
		t.Fatalf("chi-square %.1f: not uniform (%v)", chi2, counts)
	}
}

// harmonic is H(n, s) = Σ_{i=1..n} i^-s; the top rank's probability
// under zipf is 1/H(n, s).
func harmonic(n int, s float64) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += math.Pow(float64(i), -s)
	}
	return h
}

func TestZipfTopRankFrequency(t *testing.T) {
	const n, draws = 1000, 200000
	z := newZipf(rng.New(11), ranks(n), zipfS)
	top := 0
	for i := 0; i < draws; i++ {
		if z.rank() == 0 {
			top++
		}
	}
	p := 1 / harmonic(n, zipfS)
	sigma := math.Sqrt(p * (1 - p) / draws)
	if got := float64(top) / draws; math.Abs(got-p) > 5*sigma {
		t.Fatalf("top rank drawn %.4f of the time, want 1/H(n,s) = %.4f ± %.4f", got, p, 5*sigma)
	}
}

func TestZipfPairDistinct(t *testing.T) {
	z := newZipf(rng.New(5), ranks(3), 2)
	for i := 0; i < 1000; i++ {
		if u, v := z.pair(); u == v {
			t.Fatalf("pair %d: u == v == %d", i, u)
		}
	}
}

func TestUniformPair(t *testing.T) {
	const n = 4
	r := rng.New(9)
	seen := map[[2]sling.NodeID]int{}
	for i := 0; i < 12000; i++ {
		u, v := uniformPair(r, n)
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			t.Fatalf("bad pair (%d,%d)", u, v)
		}
		seen[[2]sling.NodeID{u, v}]++
	}
	if len(seen) != n*(n-1) {
		t.Fatalf("saw %d ordered pairs, want %d", len(seen), n*(n-1))
	}
	for p, c := range seen {
		if c < 800 || c > 1200 {
			t.Fatalf("pair %v drawn %d times of 12000, want about 1000", p, c)
		}
	}
}

func TestRankByInDegree(t *testing.T) {
	// In-degrees: 0:0, 1:2, 2:2, 3:1.
	g := sling.FromEdges(4, []sling.Edge{{From: 0, To: 1}, {From: 3, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}, {From: 0, To: 3}})
	got := rankByInDegree(g)
	want := []sling.NodeID{1, 2, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranking %v, want %v (ties by ascending ID)", got, want)
		}
	}
}
