package main

import (
	"math"
	"sort"
)

// dist is a sorted sample set. Percentiles are nearest-rank: the p-th
// percentile of m samples is the ⌈p·m/100⌉-th smallest, so every
// reported value is one that was measured.
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

// n is the sample count.
func (d dist) n() int { return len(d.sorted) }

// rank is the 1-based nearest rank of percentile p.
func (d dist) rank(p float64) int {
	r := int(math.Ceil(p*float64(len(d.sorted))/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > len(d.sorted) {
		r = len(d.sorted)
	}
	return r
}

// pct is the nearest-rank p-th percentile (0 for an empty set).
func (d dist) pct(p float64) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[d.rank(p)-1]
}

// beyond is how many samples lie above the p-th percentile's rank.
func (d dist) beyond(p float64) int {
	if len(d.sorted) == 0 {
		return 0
	}
	return len(d.sorted) - d.rank(p)
}

// tailPcts is the ladder topPct climbs.
var tailPcts = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// topPct is the highest percentile of the ladder with at least ten
// samples beyond it, the tail a sample set of this size can support.
// It is 0 when not even the median qualifies.
func (d dist) topPct() float64 {
	top := 0.0
	for _, p := range tailPcts {
		if d.beyond(p) >= 10 {
			top = p
		}
	}
	return top
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so the compare mode reports the spread exactly as
// the steadiness rule defines it. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the middle sample (the mean of the two middle ones for an
// even count), used for repeated set-up timings.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
