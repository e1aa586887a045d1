package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"sling/internal/graph"
	"sling/internal/power"
	"sling/internal/walk"
)

func TestSpaceReductionShrinksIndex(t *testing.T) {
	g := randomGraph(60, 360, 51)
	full := buildIndex(t, g, &Options{Eps: 0.05, Seed: 53, DisableSpaceReduction: true})
	reduced := buildIndex(t, g, &Options{Eps: 0.05, Seed: 53})
	if reduced.NumEntries() >= full.NumEntries() {
		t.Fatalf("space reduction kept %d entries vs %d without", reduced.NumEntries(), full.NumEntries())
	}
	anyReduced := false
	for v := graph.NodeID(0); v < 60; v++ {
		if reduced.Reduced(v) {
			anyReduced = true
			// Stored entries must have no step-1/2 HPs.
			keys, _ := reduced.EntriesOf(v)
			for _, k := range keys {
				if l := keyStep(k); l == 1 || l == 2 {
					t.Fatalf("reduced node %d still stores a step-%d entry", v, l)
				}
			}
		}
	}
	if !anyReduced {
		t.Fatal("no node qualified for space reduction on a sparse graph")
	}
}

// Queries with and without space reduction must agree up to the exactness
// gain: the reduced index recomputes steps 1-2 precisely, so it is at
// least as accurate, never worse than the combined bounds.
func TestSpaceReductionPreservesAccuracy(t *testing.T) {
	g := randomGraph(40, 200, 55)
	const c = 0.6
	truth := groundTruth(t, g, c)
	x := buildIndex(t, g, &Options{C: c, Eps: 0.05, Seed: 57})
	p := x.NewScratchPool()
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			got := must(p.SimRank(graph.NodeID(i), graph.NodeID(j)))
			if d := math.Abs(got - truth.At(i, j)); d > x.ErrorBound() {
				t.Fatalf("reduced-index error %v at (%d,%d) exceeds %v", d, i, j, x.ErrorBound())
			}
		}
	}
}

// The reconstructed step-1/2 HPs must be exact (Algorithm 5).
func TestAlgorithm5Exactness(t *testing.T) {
	g := randomGraph(25, 120, 59)
	const c = 0.6
	x := buildIndex(t, g, &Options{C: c, Eps: 0.05, Seed: 61})
	exact := walk.ExactHP(g, c, 2)
	s := x.NewScratch()
	for v := graph.NodeID(0); v < 25; v++ {
		var keys []uint64
		var vals []float64
		keys, vals = x.appendExactSteps12(v, s, keys[:0], vals[:0])
		for i, key := range keys {
			l, k := keyStep(key), keyNode(key)
			if math.Abs(vals[i]-exact[l][v][k]) > 1e-12 {
				t.Fatalf("reconstructed h(%d)(%d,%d) = %v, exact %v", l, v, k, vals[i], exact[l][int(v)][k])
			}
		}
		// Coverage: every nonzero exact step-1/2 HP appears.
		for l := 1; l <= 2; l++ {
			for k := 0; k < 25; k++ {
				if exact[l][v][k] > 0 && !lookupKey(keys, entryKey(l, int32(k))) {
					t.Fatalf("missing reconstructed entry h(%d)(%d,%d)", l, v, k)
				}
			}
		}
	}
}

func TestEnhanceImprovesOrMatchesAccuracy(t *testing.T) {
	g := randomGraph(40, 200, 63)
	const c = 0.6
	truth := groundTruth(t, g, c)
	plain := buildIndex(t, g, &Options{C: c, Eps: 0.08, Seed: 65})
	enhanced := buildIndex(t, g, &Options{C: c, Eps: 0.08, Seed: 65, Enhance: true})
	pp, pe := plain.NewScratchPool(), enhanced.NewScratchPool()
	var sumPlain, sumEnh float64
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			gp := must(pp.SimRank(graph.NodeID(i), graph.NodeID(j)))
			ge := must(pe.SimRank(graph.NodeID(i), graph.NodeID(j)))
			sumPlain += math.Abs(gp - truth.At(i, j))
			sumEnh += math.Abs(ge - truth.At(i, j))
			if d := math.Abs(ge - truth.At(i, j)); d > enhanced.ErrorBound() {
				t.Fatalf("enhanced error %v exceeds bound at (%d,%d)", d, i, j)
			}
		}
	}
	if sumEnh > sumPlain*1.001 {
		t.Fatalf("enhancement worsened total error: %v vs %v", sumEnh, sumPlain)
	}
}

func TestEnhancedEntriesNeverOverestimate(t *testing.T) {
	g := randomGraph(30, 150, 67)
	const c = 0.6
	x := buildIndex(t, g, &Options{C: c, Eps: 0.08, Seed: 69, Enhance: true})
	maxL := maxStoredStep(math.Sqrt(c), x.Theta()) + 2
	exact := walk.ExactHP(g, c, maxL)
	s := x.NewScratch()
	for v := graph.NodeID(0); v < 30; v++ {
		keys, vals, _ := x.gatherAt(x, v, s, 0)
		for i, key := range keys {
			l, k := keyStep(key), keyNode(key)
			if l > maxL {
				t.Fatalf("gathered step %d beyond bound %d", l, maxL)
			}
			// A stored value is h̃ rounded to float32, up to 2⁻²⁴ above it.
			if vals[i] > exact[l][v][k]*(1+0x1p-24)+1e-12 {
				t.Fatalf("H*(%d) entry (%d,%d) overestimates: %v > %v",
					v, l, k, vals[i], exact[l][int(v)][k])
			}
		}
	}
}

func TestSingleSourceMatchesSinglePair(t *testing.T) {
	g := randomGraph(40, 240, 71)
	x := buildIndex(t, g, &Options{Eps: 0.05, Seed: 73})
	p := x.NewScratchPool()
	for _, u := range []graph.NodeID{0, 13, 39} {
		scores := must(p.SingleSource(u, nil))
		for v := graph.NodeID(0); v < 40; v++ {
			pair := must(p.SimRank(u, v))
			// Algorithm 6's fold drops entries ≤ τ_h before each hop, so
			// it is not bit-identical to Algorithm 3, but both carry the
			// ε guarantee; their gap is bounded by the θ-induced error.
			if math.Abs(scores[v]-pair) > x.ErrorBound() {
				t.Fatalf("Alg6 s(%d,%d)=%v vs Alg3 %v", u, v, scores[v], pair)
			}
		}
	}
}

func TestSingleSourceAccuracy(t *testing.T) {
	g := randomGraph(40, 220, 75)
	const c = 0.6
	truth := groundTruth(t, g, c)
	x := buildIndex(t, g, &Options{C: c, Eps: 0.05, Seed: 77})
	p := x.NewScratchPool()
	for u := 0; u < 40; u++ {
		scores := must(p.SingleSource(graph.NodeID(u), nil))
		for v := 0; v < 40; v++ {
			if d := math.Abs(scores[v] - truth.At(u, v)); d > x.ErrorBound() {
				t.Fatalf("single-source error %v at (%d,%d) exceeds %v", d, u, v, x.ErrorBound())
			}
		}
	}
}

func TestSingleSourceNaiveMatchesPairs(t *testing.T) {
	g := randomGraph(30, 160, 79)
	x := buildIndex(t, g, &Options{Eps: 0.06, Seed: 81})
	p := x.NewScratchPool()
	out := must(p.SingleSourceNaive(7, nil))
	for v := graph.NodeID(0); v < 30; v++ {
		want := must(p.SimRank(7, v))
		if math.Abs(out[v]-want) > 1e-12 {
			t.Fatalf("naive single-source differs from pair query at %d: %v vs %v", v, out[v], want)
		}
	}
}

func TestSingleSourceBufferReuse(t *testing.T) {
	g := randomGraph(20, 100, 83)
	x := buildIndex(t, g, &Options{Eps: 0.08, Seed: 85})
	buf := make([]float64, 20)
	out := must(x.NewScratchPool().SingleSource(3, buf))
	if &out[0] != &buf[0] {
		t.Fatal("provided buffer not reused")
	}
	naive := must(x.NewScratchPool().SingleSourceNaive(3, buf))
	if &naive[0] != &buf[0] {
		t.Fatal("provided buffer not reused by the Alg-3 loop")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := randomGraph(40, 240, 87)
	x := buildIndex(t, g, &Options{Eps: 0.05, Seed: 89, Enhance: true})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	x2, err := ReadIndex(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if x2.NumEntries() != x.NumEntries() {
		t.Fatalf("entry count changed: %d -> %d", x.NumEntries(), x2.NumEntries())
	}
	p1, p2 := x.NewScratchPool(), x2.NewScratchPool()
	for i := graph.NodeID(0); i < 40; i++ {
		for j := graph.NodeID(0); j < 40; j += 3 {
			a, b := must(p1.SimRank(i, j)), must(p2.SimRank(i, j))
			if a != b {
				t.Fatalf("round-trip changed s(%d,%d): %v -> %v", i, j, a, b)
			}
		}
	}
}

func TestSerializationRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("junkjunkjunk")), nil); err == nil {
		t.Fatal("garbage accepted")
	}
	var empty bytes.Buffer
	if _, err := ReadIndex(&empty, nil); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestSerializationWrongGraph(t *testing.T) {
	g := randomGraph(20, 100, 91)
	x := buildIndex(t, g, &Options{Eps: 0.08, Seed: 93})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	other := randomGraph(21, 100, 91)
	if _, err := ReadIndex(&buf, other); err == nil {
		t.Fatal("index bound to wrong-sized graph")
	}
}

func TestDiskIndexMatchesMemory(t *testing.T) {
	g := randomGraph(50, 300, 95)
	x := buildIndex(t, g, &Options{Eps: 0.05, Seed: 97, Enhance: true})
	path := t.TempDir() + "/idx.sling"
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	mp := x.NewScratchPool()
	p, ds := di.NewScratchPool(), di.NewScratch()
	for i := graph.NodeID(0); i < 50; i++ {
		for j := graph.NodeID(0); j < 50; j += 7 {
			want := must(mp.SimRank(i, j))
			got, err := p.simRank(i, j, ds)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("disk s(%d,%d)=%v, memory %v", i, j, got, want)
			}
		}
	}
}

func TestDiskIndexMetaBytesSmall(t *testing.T) {
	g := randomGraph(60, 400, 99)
	x := buildIndex(t, g, &Options{Eps: 0.04, Seed: 101})
	path := t.TempDir() + "/idx.sling"
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	// The disk-mode resident set excludes the entries region entirely.
	if di.Meta().Bytes() >= x.Bytes() {
		t.Fatalf("disk meta %d bytes >= full index %d", di.Meta().Bytes(), x.Bytes())
	}
}

// Property: on random small graphs, for random pairs, the ε guarantee
// holds end to end.
func TestPropertyErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%20) + 2
		m := int(mRaw%120) + 1
		g := randomGraph(n, m, seed)
		truth, err := power.AllPairs(g, 0.6, power.IterationsFor(1e-9, 0.6))
		if err != nil {
			return false
		}
		x, err := Build(g, &Options{Eps: 0.1, Seed: seed})
		if err != nil {
			return false
		}
		p := x.NewScratchPool()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got := must(p.SimRank(graph.NodeID(i), graph.NodeID(j)))
				if math.Abs(got-truth.At(i, j)) > x.ErrorBound() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskIndexSingleSource(t *testing.T) {
	g := randomGraph(40, 240, 117)
	x := buildIndex(t, g, &Options{Eps: 0.06, Seed: 119, Enhance: true})
	path := t.TempDir() + "/ss.sling"
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	mp, p := x.NewScratchPool(), di.NewScratchPool()
	for _, u := range []graph.NodeID{0, 19, 39} {
		want := must(mp.SingleSource(u, nil))
		got, err := p.SingleSource(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 40; v++ {
			if got[v] != want[v] {
				t.Fatalf("disk single-source differs at (%d,%d): %v vs %v", u, v, got[v], want[v])
			}
		}
	}
}
