//go:build race

package dynamic

// Under the race detector sync.Pool drops a share of Put items on
// purpose, so pooled paths allocate fresh scratch at random.
func init() { raceEnabled = true }
