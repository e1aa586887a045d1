package sling

// The paper fixes c = 0.6 for its experiments but the algorithms are
// generic in the decay factor; Jeh & Widom's original work used c = 0.8.
// These tests sweep c across every method to verify nothing silently
// assumes the default.

import (
	"math"
	"testing"

	"sling/internal/core"
	"sling/internal/graph"
	"sling/internal/linearize"
	"sling/internal/mc"
	"sling/internal/power"
)

func TestDecayFactorSweepSLING(t *testing.T) {
	g := testGraph(35, 180, 301)
	for _, c := range []float64{0.3, 0.6, 0.8} {
		truth, err := power.AllPairs(g, c, power.IterationsFor(1e-9, c))
		if err != nil {
			t.Fatal(err)
		}
		x, err := core.Build(g, &core.Options{C: c, Eps: 0.06, Seed: 303})
		if err != nil {
			t.Fatal(err)
		}
		p := x.NewScratchPool()
		for i := 0; i < 35; i++ {
			for j := 0; j < 35; j++ {
				got, err := p.SimRank(graph.NodeID(i), graph.NodeID(j))
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got - truth.At(i, j)); d > x.ErrorBound() {
					t.Fatalf("c=%v: error %v at (%d,%d) exceeds %v", c, d, i, j, x.ErrorBound())
				}
			}
		}
	}
}

func TestDecayFactorSweepSingleSource(t *testing.T) {
	g := testGraph(30, 150, 305)
	for _, c := range []float64{0.4, 0.8} {
		truth, err := power.AllPairs(g, c, power.IterationsFor(1e-9, c))
		if err != nil {
			t.Fatal(err)
		}
		x, err := core.Build(g, &core.Options{C: c, Eps: 0.08, Seed: 307})
		if err != nil {
			t.Fatal(err)
		}
		p := x.NewScratchPool()
		for u := 0; u < 30; u += 5 {
			scores, err := p.SingleSource(graph.NodeID(u), nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < 30; v++ {
				if d := math.Abs(scores[v] - truth.At(u, v)); d > x.ErrorBound() {
					t.Fatalf("c=%v: single-source error %v at (%d,%d)", c, d, u, v)
				}
			}
		}
	}
}

func TestDecayFactorSweepBaselines(t *testing.T) {
	g := testGraph(30, 150, 309)
	const c = 0.8
	truth, err := power.AllPairs(g, c, power.IterationsFor(1e-9, c))
	if err != nil {
		t.Fatal(err)
	}
	mcIx, err := mc.Build(g, &mc.Options{C: c, NumWalks: 30000, Truncation: 20, Seed: 311})
	if err != nil {
		t.Fatal(err)
	}
	linIx, err := linearize.Build(g, &linearize.Options{C: c, T: 25, R: 600, L: 6, Seed: 313})
	if err != nil {
		t.Fatal(err)
	}
	ls := linIx.NewScratch()
	var worstMC, worstLin float64
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			want := truth.At(i, j)
			if d := math.Abs(mcIx.SimRank(graph.NodeID(i), graph.NodeID(j)) - want); d > worstMC {
				worstMC = d
			}
			if d := math.Abs(linIx.SimRank(graph.NodeID(i), graph.NodeID(j), ls) - want); d > worstLin {
				worstLin = d
			}
		}
	}
	if worstMC > 0.04 {
		t.Fatalf("MC at c=0.8: worst error %v", worstMC)
	}
	if worstLin > 0.1 {
		t.Fatalf("Linearize at c=0.8: worst error %v", worstLin)
	}
}

// Higher decay factors spread similarity mass further: on a graph with a
// shared-parent pair, s(u,v) = c exactly, so the sweep checks the
// dependence is linear in c.
func TestDecayScalingSharedParent(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(2, 0)
	b.AddEdge(2, 1)
	g := b.Build()
	for _, c := range []float64{0.2, 0.5, 0.9} {
		x, err := core.Build(g, &core.Options{C: c, Eps: 0.05, Seed: 315})
		if err != nil {
			t.Fatal(err)
		}
		got, err := x.NewScratchPool().SimRank(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c) > x.ErrorBound() {
			t.Fatalf("c=%v: s(0,1) = %v", c, got)
		}
	}
}
