package sling

// Cross-method integration tests: the four SimRank solvers in this
// repository (power method, Monte Carlo, linearization, SLING) are
// independent implementations resting on different formulations of the
// same quantity — Equation (1), reverse-walk meetings (Eq. 2), the
// diagonal-correction series (Lemma 2), and the last-meeting
// decomposition (Lemma 4). Agreement across all four on random graphs is
// the strongest end-to-end check the paper's theory offers, including the
// Lemma 5 bridge between the walk view and the matrix view.

import (
	"math"
	"testing"

	"sling/internal/core"
	"sling/internal/graph"
	"sling/internal/linearize"
	"sling/internal/mc"
	"sling/internal/power"
	"sling/internal/rng"
	"sling/internal/walk"
)

func TestAllMethodsAgree(t *testing.T) {
	g := testGraph(50, 280, 77)
	const c = 0.6
	truth, err := power.AllPairs(g, c, power.IterationsFor(1e-9, c))
	if err != nil {
		t.Fatal(err)
	}

	slingIx, err := core.Build(g, &core.Options{C: c, Eps: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mcIx, err := mc.Build(g, &mc.Options{C: c, NumWalks: 20000, Truncation: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	linIx, err := linearize.Build(g, &linearize.Options{C: c, R: 800, L: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	pool := slingIx.NewScratchPool()
	ls := linIx.NewScratch()
	var worstSling, worstMC, worstLin float64
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			want := truth.At(i, j)
			u, v := graph.NodeID(i), graph.NodeID(j)
			got, err := pool.SimRank(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got - want); d > worstSling {
				worstSling = d
			}
			if d := math.Abs(mcIx.SimRank(u, v) - want); d > worstMC {
				worstMC = d
			}
			if d := math.Abs(linIx.SimRank(u, v, ls) - want); d > worstLin {
				worstLin = d
			}
		}
	}
	if worstSling > slingIx.ErrorBound() {
		t.Fatalf("SLING worst error %v breaks its guarantee %v", worstSling, slingIx.ErrorBound())
	}
	if worstMC > 0.03 {
		t.Fatalf("MC worst error %v", worstMC)
	}
	if worstLin > 0.08 {
		t.Fatalf("Linearize worst error %v", worstLin)
	}
}

// Lemma 5: h^(ℓ)(v_i, v_k) = (√c)^ℓ · P^ℓ(k, i), and the correction
// factor d_k equals the k-th diagonal of the linearization method's D.
// The walk package computes HPs from the √c-walk recurrence; here we
// verify them against plain powers of the column-stochastic P.
func TestLemma5HPsArePowersOfP(t *testing.T) {
	g := testGraph(20, 90, 79)
	const c = 0.6
	n := g.NumNodes()
	hp := walk.ExactHP(g, c, 5)

	// P^ℓ · e_i computed column by column: (P·x)(a) = Σ_{j: a∈I(j)} x_j/|I(j)|.
	applyP := func(x []float64) []float64 {
		out := make([]float64, n)
		for j := 0; j < n; j++ {
			if x[j] == 0 {
				continue
			}
			ins := g.InNeighbors(graph.NodeID(j))
			if len(ins) == 0 {
				continue
			}
			share := x[j] / float64(len(ins))
			for _, a := range ins {
				out[a] += share
			}
		}
		return out
	}
	sqrtC := math.Sqrt(c)
	for i := 0; i < n; i++ {
		col := make([]float64, n)
		col[i] = 1
		scale := 1.0
		for l := 0; l <= 5; l++ {
			for k := 0; k < n; k++ {
				want := scale * col[k] // (√c)^ℓ · P^ℓ(k,i)
				if math.Abs(hp[l][i][k]-want) > 1e-12 {
					t.Fatalf("Lemma 5 violated at l=%d i=%d k=%d: hp %v vs %v",
						l, i, k, hp[l][i][k], want)
				}
			}
			col = applyP(col)
			scale *= sqrtC
		}
	}
}

func TestLemma5CorrectionFactorsEqualDiagonalD(t *testing.T) {
	g := testGraph(25, 120, 81)
	const c = 0.6
	truth, err := power.AllPairs(g, c, power.IterationsFor(1e-10, c))
	if err != nil {
		t.Fatal(err)
	}
	dWalk := core.ExactDFromScores(g, c, truth.At)
	dLin := linearize.ExactD(g, c, truth.At)
	for k := range dWalk {
		if math.Abs(dWalk[k]-dLin[k]) > 1e-12 {
			t.Fatalf("d[%d]: walk view %v vs matrix view %v", k, dWalk[k], dLin[k])
		}
	}
	// And reconstructing S from D via the Lemma 2 series must reproduce
	// the ground truth (within series truncation).
	linIx, err := linearize.Build(g, &linearize.Options{C: c, T: 30, R: 5, L: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	linIx.SetD(dLin)
	s := linIx.NewScratch()
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			got := linIx.SimRank(graph.NodeID(i), graph.NodeID(j), s)
			if math.Abs(got-truth.At(i, j)) > 1e-3 {
				t.Fatalf("Lemma 2 reconstruction off at (%d,%d): %v vs %v", i, j, got, truth.At(i, j))
			}
		}
	}
}

// Appendix A of the paper: on the directed 4-cycle the linear system for
// D is not diagonally dominant at c = 0.6, the condition Gauss-Seidel
// needs — the paper's argument for why Linearize carries no guarantee.
// SLING must still meet its bound on that adversarial graph.
func TestAdversarialFourCycle(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	const c = 0.6
	truth, err := power.AllPairs(g, c, power.IterationsFor(1e-10, c))
	if err != nil {
		t.Fatal(err)
	}
	// The exact D on the cycle is the uniform diagonal (1-c^4 geometry of
	// Figure 8); all off-diagonal similarities are 0 since walks preserve
	// circular distance.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(truth.At(i, j)-want) > 1e-9 {
				t.Fatalf("cycle ground truth wrong at (%d,%d): %v", i, j, truth.At(i, j))
			}
		}
	}
	ix, err := core.Build(g, &core.Options{C: c, Eps: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pool := ix.NewScratchPool()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			got, err := pool.SimRank(graph.NodeID(i), graph.NodeID(j))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-truth.At(i, j)) > ix.ErrorBound() {
				t.Fatalf("SLING breaks its bound on the adversarial cycle at (%d,%d): %v", i, j, got)
			}
		}
	}
}

// Equation 2 (the Monte Carlo formulation) and Lemma 3 (the √c-walk
// formulation) must agree: estimate one score both ways.
func TestWalkFormulationsAgree(t *testing.T) {
	g := testGraph(30, 150, 83)
	const c = 0.6
	w := walk.New(g, c, rng.New(5))
	lemma3 := w.MeetProbability(3, 17, 150000)
	mcIx, err := mc.Build(g, &mc.Options{C: c, NumWalks: 150000, Truncation: 15, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	eq2 := mcIx.SimRank(3, 17)
	if math.Abs(lemma3-eq2) > 0.01 {
		t.Fatalf("formulations disagree: Lemma 3 %v vs Eq. 2 %v", lemma3, eq2)
	}
}
