package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	d := newDist(seq(100)) // 1..100
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {50.5, 51}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100},
	} {
		if got := d.pct(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := d.beyond(99); got != 1 {
		t.Errorf("beyond(99) = %d, want 1", got)
	}
	if d.n() != 100 {
		t.Errorf("n = %d", d.n())
	}
	if got := newDist(nil).pct(50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTopPct(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := newDist(seq(c.n)).topPct(); got != c.want {
			t.Errorf("n=%d: top percentile %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	} {
		q1, m, q3 := quartiles(c.xs)
		got := [3]float64{q1, m, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
