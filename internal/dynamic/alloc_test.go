package dynamic

import (
	"testing"

	"sling/internal/core"
	"sling/internal/graph"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestCleanReadAllocs pins the clean reads, which the generation's
// ScratchPool serves from the static index, to zero allocations per
// call: a pair query, and a single-source query into a caller-sized
// buffer.
func TestCleanReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, _ := randomGraph(200, 1200, 5)
	d, err := New(g, Options{Build: core.Options{Eps: 0.1, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const u, v = graph.NodeID(3), graph.NodeID(7)
	if d.SimRank(u, v) == 0 && d.SimRank(u, u) == 0 {
		t.Fatal("test nodes score 0; pick others")
	}
	out := make([]float64, g.NumNodes())
	calls := map[string]func(){
		"SimRank":      func() { d.SimRank(u, v) },
		"SingleSource": func() { d.SingleSource(u, out) },
	}
	for name, call := range calls {
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}
