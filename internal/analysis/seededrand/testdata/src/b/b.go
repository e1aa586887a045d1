// Package b satisfies the seededrand invariant: randomness comes from
// the repository's seeded source, so a fixed seed reproduces the draw.
package b

import "sling/internal/rng"

func Shuffled(n int) []int {
	r := rng.New(1)
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(n)
	}
	return out
}
