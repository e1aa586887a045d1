package linearize

import (
	"math"
	"testing"

	"sling/internal/graph"
	"sling/internal/power"
	"sling/internal/rng"
)

func randomGraph(n, m int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
	}
	return b.Build()
}

func groundTruth(t *testing.T, g *graph.Graph, c float64) *power.Scores {
	t.Helper()
	s, err := power.AllPairs(g, c, power.IterationsFor(1e-9, c))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildValidation(t *testing.T) {
	g := randomGraph(10, 30, 1)
	if _, err := Build(g, &Options{C: 1.2}); err == nil {
		t.Fatal("bad decay accepted")
	}
	if _, err := Build(g, &Options{T: -1}); err == nil {
		t.Fatal("negative T accepted")
	}
	if _, err := Build(g, &Options{L: -2}); err == nil {
		t.Fatal("negative L accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	x, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.d) != 0 {
		t.Fatal("non-empty D for empty graph")
	}
}

// With the exact D injected, the truncated series must match the power
// method within the truncation error c^(T+1)/(1-c) (inequality (11)).
func TestExactDMatchesPower(t *testing.T) {
	g := randomGraph(30, 140, 2)
	const c = 0.6
	truth := groundTruth(t, g, c)
	x, err := Build(g, &Options{C: c, T: 25, R: 5, L: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x.SetD(ExactD(g, c, truth.At))
	bound := math.Pow(c, 26)/(1-c) + 1e-9
	s := x.NewScratch()
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			got := x.SimRank(graph.NodeID(i), graph.NodeID(j), s)
			if d := math.Abs(got - truth.At(i, j)); d > bound {
				t.Fatalf("s(%d,%d): %v vs %v (err %v > bound %v)", i, j, got, truth.At(i, j), d, bound)
			}
		}
	}
}

// Lemma 5 cross-check: the ExactD oracle (Equation 14) equals the unique
// diagonal correction matrix, so D-entries of dangling-free in-regular
// graphs are consistent with the fixed point.
func TestExactDRange(t *testing.T) {
	g := randomGraph(40, 200, 3)
	const c = 0.6
	truth := groundTruth(t, g, c)
	d := ExactD(g, c, truth.At)
	for k, v := range d {
		if v < 1-c-1e-9 || v > 1+1e-9 {
			// d_k = Pr[two √c-walks from k never meet after step 0]
			// lies in [1-c, 1]: meeting requires both walks to survive
			// their first step, which happens with probability c.
			t.Fatalf("d[%d] = %v outside [1-c, 1]", k, v)
		}
	}
}

func TestExactDDanglingNode(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(1, 0) // node 1 has no in-neighbors
	g := b.Build()
	truth := groundTruth(t, g, 0.6)
	d := ExactD(g, 0.6, truth.At)
	if d[1] != 1 {
		t.Fatalf("dangling node d = %v, want 1", d[1])
	}
}

// The estimated D from Build should approach ExactD with many walks.
func TestEstimatedDCloseToExact(t *testing.T) {
	g := randomGraph(25, 120, 4)
	const c = 0.6
	truth := groundTruth(t, g, c)
	exact := ExactD(g, c, truth.At)
	x, err := Build(g, &Options{C: c, T: 11, R: 3000, L: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for k := range exact {
		if d := math.Abs(x.d[k] - exact[k]); d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Fatalf("worst D estimation error %v", worst)
	}
}

// End-to-end with paper parameters: errors should be small on a benign
// random graph (no guarantee — this is the method's documented weakness —
// but the pipeline must be in the right ballpark).
func TestEndToEndAccuracy(t *testing.T) {
	g := randomGraph(40, 200, 6)
	const c = 0.6
	truth := groundTruth(t, g, c)
	x, err := Build(g, &Options{C: c, Seed: 7, R: 400, L: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	worst := 0.0
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			got := x.SimRank(graph.NodeID(i), graph.NodeID(j), s)
			if d := math.Abs(got - truth.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.08 {
		t.Fatalf("worst error %v too large", worst)
	}
}

func TestSingleSourceMatchesSinglePair(t *testing.T) {
	g := randomGraph(35, 170, 8)
	x, err := Build(g, &Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	for _, u := range []graph.NodeID{0, 17, 34} {
		scores := x.SingleSource(u, s, nil)
		for v := graph.NodeID(0); v < 35; v++ {
			want := x.SimRank(u, v, s)
			if math.Abs(scores[v]-want) > 1e-9 {
				t.Fatalf("single-source s(%d,%d) = %v, single-pair %v", u, v, scores[v], want)
			}
		}
	}
}

func TestSelfScoreIsOne(t *testing.T) {
	g := randomGraph(20, 80, 10)
	x, err := Build(g, &Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	for v := graph.NodeID(0); v < 20; v++ {
		if got := x.SimRank(v, v, s); got != 1 {
			t.Fatalf("s(%d,%d) = %v", v, v, got)
		}
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	g := randomGraph(40, 200, 12)
	x1, err := Build(g, &Options{Seed: 13, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	x4, err := Build(g, &Options{Seed: 13, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := range x1.d {
		if x1.d[k] != x4.d[k] {
			t.Fatalf("D[%d] differs across worker counts", k)
		}
	}
}

// <P·u, w> must equal <u, Pᵀ·w> for random vectors: the two kernels are
// adjoint.
func TestApplyPAdjoint(t *testing.T) {
	g := randomGraph(30, 150, 14)
	x, err := Build(g, &Options{Seed: 15, R: 5, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	n := g.NumNodes()
	u := make([]float64, n)
	w := make([]float64, n)
	pu := make([]float64, n)
	ptw := make([]float64, n)
	for i := 0; i < n; i++ {
		u[i], w[i] = r.Float64(), r.Float64()
	}
	x.applyP(pu, u)
	x.applyPT(ptw, w)
	lhs, rhs := 0.0, 0.0
	for i := 0; i < n; i++ {
		lhs += pu[i] * w[i]
		rhs += u[i] * ptw[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestSetDLengthMismatchPanics(t *testing.T) {
	g := randomGraph(10, 30, 16)
	x, err := Build(g, &Options{Seed: 1, R: 5, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	x.SetD(make([]float64, 3))
}

func TestBytes(t *testing.T) {
	g := randomGraph(10, 30, 17)
	x, err := Build(g, &Options{Seed: 1, R: 5, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	if x.Bytes() != 80 {
		t.Fatalf("Bytes = %d, want 80", x.Bytes())
	}
}

func BenchmarkSinglePair(b *testing.B) {
	g := randomGraph(2000, 16000, 1)
	x, err := Build(g, &Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := x.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SimRank(graph.NodeID(i%2000), graph.NodeID((i*13)%2000), s)
	}
}

func BenchmarkSingleSource(b *testing.B) {
	g := randomGraph(2000, 16000, 1)
	x, err := Build(g, &Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := x.NewScratch()
	out := make([]float64, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SingleSource(graph.NodeID(i%2000), s, out)
	}
}
