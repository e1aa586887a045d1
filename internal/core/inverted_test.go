package core

import (
	"math"
	"testing"

	"sling/internal/graph"
)

func TestInvertedMatchesNaiveLoop(t *testing.T) {
	g := randomGraph(50, 300, 131)
	x := buildIndex(t, g, &Options{Eps: 0.05, Seed: 133})
	iv := x.BuildInverted()
	p := x.NewScratchPool()
	s := x.NewScratch()
	for _, u := range []graph.NodeID{0, 17, 49} {
		want := must(p.SingleSourceNaive(u, nil))
		got := iv.SingleSource(u, s, nil)
		for v := 0; v < 50; v++ {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Fatalf("inverted s(%d,%d) = %v, naive %v", u, v, got[v], want[v])
			}
		}
	}
}

func TestInvertedAccuracy(t *testing.T) {
	g := randomGraph(40, 220, 135)
	const c = 0.6
	truth := groundTruth(t, g, c)
	x := buildIndex(t, g, &Options{C: c, Eps: 0.05, Seed: 137})
	iv := x.BuildInverted()
	s := x.NewScratch()
	for u := 0; u < 40; u += 3 {
		scores := iv.SingleSource(graph.NodeID(u), s, nil)
		for v := 0; v < 40; v++ {
			if d := math.Abs(scores[v] - truth.At(u, v)); d > x.ErrorBound() {
				t.Fatalf("inverted error %v at (%d,%d) exceeds %v", d, u, v, x.ErrorBound())
			}
		}
	}
}

// The paper: inverted lists double the space relative to the HP sets.
func TestInvertedSpaceOverhead(t *testing.T) {
	g := randomGraph(60, 360, 139)
	x := buildIndex(t, g, &Options{Eps: 0.05, Seed: 141, DisableSpaceReduction: true})
	iv := x.BuildInverted()
	// Same entry count, comparable byte footprint.
	if got, want := len(iv.nodes), x.NumEntries(); got != want {
		t.Fatalf("inverted holds %d entries, index has %d", got, want)
	}
	if iv.Bytes() < x.Bytes()/3 {
		t.Fatalf("inverted suspiciously small: %d vs index %d", iv.Bytes(), x.Bytes())
	}
}

// With space reduction active, building the lists must materialize the
// dropped step-1/2 entries back (they cannot be combined, as the paper
// notes), so the lists hold more entries than the reduced index stores.
func TestInvertedMaterializesReducedEntries(t *testing.T) {
	g := randomGraph(60, 360, 143)
	x := buildIndex(t, g, &Options{Eps: 0.05, Seed: 145})
	anyReduced := false
	for v := graph.NodeID(0); v < 60; v++ {
		if x.Reduced(v) {
			anyReduced = true
		}
	}
	if !anyReduced {
		t.Skip("no node reduced on this graph")
	}
	iv := x.BuildInverted()
	if len(iv.nodes) <= x.NumEntries() {
		t.Fatalf("inverted entries %d not above stored %d despite reduction", len(iv.nodes), x.NumEntries())
	}
}

func TestInvertedListsSorted(t *testing.T) {
	g := randomGraph(40, 240, 147)
	x := buildIndex(t, g, &Options{Eps: 0.06, Seed: 149})
	iv := x.BuildInverted()
	for i := 1; i < len(iv.keys); i++ {
		if iv.keys[i-1] >= iv.keys[i] {
			t.Fatal("inverted keys not strictly sorted")
		}
	}
	for i := 0; i < iv.NumLists(); i++ {
		nodes := iv.nodes[iv.off[i]:iv.off[i+1]]
		for j := 1; j < len(nodes); j++ {
			if nodes[j-1] >= nodes[j] {
				t.Fatalf("list %d not sorted by node", i)
			}
		}
	}
}

func TestInvertedMissingKey(t *testing.T) {
	g := randomGraph(20, 100, 151)
	x := buildIndex(t, g, &Options{Eps: 0.1, Seed: 153})
	iv := x.BuildInverted()
	nodes, vals := iv.list(entryKey(63, 19)) // absurd step: never present
	if len(nodes) != 0 || len(vals) != 0 {
		t.Fatal("phantom list returned")
	}
}

func BenchmarkSingleSourceInverted(b *testing.B) {
	g := randomGraph(2000, 16000, 1)
	x, err := Build(g, &Options{Eps: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	iv := x.BuildInverted()
	s := x.NewScratch()
	out := make([]float64, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv.SingleSource(graph.NodeID(i%2000), s, out)
	}
}

func BenchmarkSingleSourceAlg6(b *testing.B) {
	g := randomGraph(2000, 16000, 1)
	x, err := Build(g, &Options{Eps: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := x.NewScratchPool()
	out := make([]float64, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SingleSource(graph.NodeID(i%2000), out)
	}
}

func BenchmarkSingleSourceNaiveLoop(b *testing.B) {
	g := randomGraph(2000, 16000, 1)
	x, err := Build(g, &Options{Eps: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := x.NewScratchPool()
	out := make([]float64, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SingleSourceNaive(graph.NodeID(i%2000), out)
	}
}
