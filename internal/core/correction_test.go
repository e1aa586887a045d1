package core

import (
	"math"
	"testing"

	"sling/internal/bernoulli"
	"sling/internal/graph"
	"sling/internal/rng"
	"sling/internal/walk"
	"sling/internal/workload"
)

// boundGraphs are small directed, undirected and random graphs, small
// enough for power-iteration ground truth.
func boundGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"random-40": randomGraph(40, 200, 7),
		"random-60": randomGraph(60, 150, 8),
	}
	for _, name := range []string{"Wiki-Vote", "GrQc", "AS"} {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no %s stand-in", name)
		}
		gs[name] = spec.Generate(0.15)
	}
	return gs
}

func resolveFor(t *testing.T, g *graph.Graph, o Options) resolved {
	t.Helper()
	prm, err := o.resolve(g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	return prm
}

// certifyLimit is the bound's threshold, ε*·(1 − boundRounding).
func certifyLimit(prm resolved) float64 {
	return prm.epsD / prm.c * (1 - boundRounding)
}

// The walk-meeting bound never falls below the exact μ_k: a limit just
// under μ_k is never certified, however many pushes the bound may spend.
// And no node it certifies at ε* has μ_k > ε*.
func TestWalkMeetingBoundAboveExact(t *testing.T) {
	const slack = 1e-7 // far above power iteration's 1e-9 error
	for _, c := range []float64{0.6, 0.8} {
		for name, g := range boundGraphs(t) {
			truth := groundTruth(t, g, c)
			exact := ExactDFromScores(g, c, truth.At)
			prm := resolveFor(t, g, Options{C: c, Seed: 1})
			epsStar := prm.epsD / prm.c
			s := newDScratch(g.NumNodes())
			var tested, certified int
			for k := range exact {
				ins := g.InNeighbors(graph.NodeID(k))
				if len(ins) == 0 {
					continue
				}
				deg := float64(len(ins))
				mu := (1 - c/deg - exact[k]) / c
				if mu > slack {
					tested++
					if ok, _ := s.certifies(g, ins, c, mu-slack, math.MaxInt); ok {
						t.Errorf("c=%v %s node %d: bound certified %v below exact μ %v", c, name, k, mu-slack, mu)
					}
				}
				if ok, _ := s.certifies(g, ins, c, certifyLimit(prm), math.MaxInt); ok {
					certified++
					if mu > epsStar+slack {
						t.Errorf("c=%v %s node %d: certified at ε* %v with μ %v", c, name, k, epsStar, mu)
					}
				}
			}
			if tested == 0 {
				t.Errorf("c=%v %s: no node with μ > 0 to test", c, name)
			}
			t.Logf("c=%v %s: %d nodes with μ > 0 checked, %d certified at ε*", c, name, tested, certified)
		}
	}
}

// sampledD is d̃_k from sampling alone on the (Seed, k) stream, as the
// build drew it before the bound existed.
func sampledD(g *graph.Graph, k graph.NodeID, prm resolved) float64 {
	ins := g.InNeighbors(k)
	w := walk.New(g, prm.c, rng.New(rng.MixSeed(prm.seed, int(k))))
	sampler := func() bool {
		i := ins[w.Rng().Intn(len(ins))]
		j := ins[w.Rng().Intn(len(ins))]
		return i != j && w.PairMeetsAfterStart(i, j)
	}
	epsStar := prm.epsD / prm.c
	var res bernoulli.Result
	if prm.basicEstimator {
		res, _ = bernoulli.EstimateFixed(sampler, epsStar, prm.deltaD)
	} else {
		res, _ = bernoulli.Estimate(sampler, epsStar, prm.deltaD)
	}
	return math.Min(math.Max(1-prm.c/float64(len(ins))-prm.c*res.Mean, 0), 1)
}

// A node the bound certifies is within ε_d of the exact d_k surely; a
// node it does not certify gets the bits sampling alone gives on the
// same stream, with either estimator (Algorithm 1 at ε = 0.1 on the
// graphs where the bound certifies most, to keep its fixed sample count
// small).
func TestWalkMeetingBoundCertifiedAndSampledNodes(t *testing.T) {
	const c = 0.6
	for name, g := range boundGraphs(t) {
		if name == "AS" {
			continue // GrQc covers the undirected case
		}
		truth := groundTruth(t, g, c)
		exact := ExactDFromScores(g, c, truth.At)
		opts := []Options{{C: c, Eps: 0.05, Seed: 3}}
		if name == "Wiki-Vote" || name == "random-60" {
			opts = append(opts, Options{C: c, Eps: 0.1, Seed: 3, BasicEstimator: true})
		}
		for _, o := range opts {
			x := buildIndex(t, g, &o)
			prm := resolveFor(t, g, o)
			n0 := bernoulli.CertificateSamples(prm.epsD/prm.c, prm.deltaD)
			s := newDScratch(g.NumNodes())
			var certified, sampled int
			for k := range exact {
				ins := g.InNeighbors(graph.NodeID(k))
				if len(ins) == 0 {
					continue
				}
				if ok, _ := s.certifies(g, ins, c, certifyLimit(prm), n0); ok {
					certified++
					if e := math.Abs(x.d[k] - exact[k]); e > prm.epsD {
						t.Errorf("%s basic=%v node %d: certified d̃ off by %v > ε_d %v", name, o.BasicEstimator, k, e, prm.epsD)
					}
					continue
				}
				sampled++
				if want := sampledD(g, graph.NodeID(k), prm); x.d[k] != want {
					t.Errorf("%s basic=%v node %d: d̃ %v, sampling alone gives %v", name, o.BasicEstimator, k, x.d[k], want)
				}
			}
			t.Logf("%s basic=%v: %d certified, %d sampled", name, o.BasicEstimator, certified, sampled)
		}
	}
}

// In an in-tree each node's in-neighbours are its children, so walks from
// two children stay in disjoint subtrees and never meet: the bound is
// exactly 0 at every node, and the build draws no pair.
func TestWalkMeetingBoundInTree(t *testing.T) {
	const n = 300
	r := rng.New(5)
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		parent := (i - 1) / 3
		if i%4 == 0 {
			parent = r.Intn(i)
		}
		b.AddEdge(graph.NodeID(i), graph.NodeID(parent))
	}
	g := b.Build()
	_, st, err := BuildWithStats(g, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.WalkPairs != 0 {
		t.Fatalf("in-tree build drew %d walk pairs, want 0", st.WalkPairs)
	}
	if st.BoundPushes == 0 {
		t.Fatal("in-tree build made no bound pushes; the tree has nodes with two stepping children")
	}
	s := newDScratch(n)
	for k := 0; k < n; k++ {
		if ins := g.InNeighbors(graph.NodeID(k)); len(ins) > 0 {
			if ok, _ := s.certifies(g, ins, 0.6, 0, math.MaxInt); !ok {
				t.Errorf("node %d: bound above 0 in an in-tree", k)
			}
		}
	}
}

// twoHalves is two disjoint random graphs whose nodes have four
// in-neighbours each from their own half, plus a node fed by one node of
// each half. Walks from its in-neighbours never meet and never die, so
// its bound is 0 over every level while the tail shrinks only as c^T and
// the pushes grow fourfold a level: the budget, not the bound, ends it.
func twoHalves(half int) *graph.Graph {
	r := rng.New(11)
	b := graph.NewBuilder(2*half + 1)
	for h := 0; h < 2; h++ {
		for v := 0; v < half; v++ {
			for e := 0; e < 4; e++ {
				b.AddEdge(graph.NodeID(h*half+r.Intn(half)), graph.NodeID(h*half+v))
			}
		}
	}
	b.AddEdge(0, graph.NodeID(2*half))
	b.AddEdge(graph.NodeID(half), graph.NodeID(2*half))
	return b.Build()
}

// The bound gives up before an in-list that would take its pushes past
// n₀, so no node spends more than n₀ (let alone n₀ plus the largest
// in-degree). On twoHalves the budget binds.
func TestWalkMeetingBoundBudget(t *testing.T) {
	all := boundGraphs(t)
	gs := map[string]*graph.Graph{"Wiki-Vote": all["Wiki-Vote"], "GrQc": all["GrQc"], "two-halves": twoHalves(400)}
	for name, g := range gs {
		prm := resolveFor(t, g, Options{Eps: 0.05, Seed: 1})
		n0 := bernoulli.CertificateSamples(prm.epsD/prm.c, prm.deltaD)
		maxIn := 0
		for k := 0; k < g.NumNodes(); k++ {
			maxIn = max(maxIn, g.InDegree(graph.NodeID(k)))
		}
		s := newDScratch(g.NumNodes())
		most := 0
		for k := 0; k < g.NumNodes(); k++ {
			_, _, pushes := estimateD(g, graph.NodeID(k), prm, s)
			if pushes > n0 {
				t.Errorf("%s node %d: %d pushes past the budget n₀ = %d (max in-degree %d)", name, k, pushes, n0, maxIn)
			}
			most = max(most, pushes)
		}
		if name == "two-halves" && most <= n0-maxIn {
			t.Errorf("%s: at most %d pushes per node; the budget n₀ = %d never bound", name, most, n0)
		}
	}
}

// unionSum is the walk-meeting bound summed densely: U_k over levels
// 1..L with Σ_{a≠b}⟨P_t(a), P_t(b)⟩ = ‖S_t‖² − Σ_a ‖P_t(a)‖², for L so
// large that the levels past it add less than 1e-12.
func unionSum(g *graph.Graph, ins []graph.NodeID, c float64) float64 {
	n := g.NumNodes()
	p := make([][]float64, len(ins))
	for a, i := range ins {
		p[a] = make([]float64, n)
		p[a][i] = 1
	}
	next := make([]float64, n)
	sum := make([]float64, n)
	d := float64(len(ins))
	u, ct := 0.0, 1.0
	for ct*c/(1-c) >= 1e-12 {
		ct *= c
		clear(sum)
		self := 0.0
		for a := range p {
			clear(next)
			for x, m := range p[a] {
				if in := g.InNeighbors(graph.NodeID(x)); m > 0 && len(in) > 0 {
					for _, y := range in {
						next[y] += m / float64(len(in))
					}
				}
			}
			p[a], next = next, p[a]
			for y, m := range p[a] {
				sum[y] += m
				self += m * m
			}
		}
		all := 0.0
		for _, s := range sum {
			all += s * s
		}
		u += ct * (all - self) / (d * d)
	}
	return u
}

// funnel is a graph where the union bound is tight from level 1: node 3's
// in-neighbours 0 and 1 both step only to node 2, whose self-loop keeps
// both walks there; the same for node 7 with three in-neighbours stepping
// to the complete pair {4, 5}.
func funnel() *graph.Graph {
	b := graph.NewBuilder(8)
	for _, e := range [][2]graph.NodeID{{0, 3}, {1, 3}, {2, 0}, {2, 1}, {2, 2},
		{6, 7}, {4, 7}, {5, 7}, {4, 4}, {4, 5}, {5, 4}, {5, 5}, {4, 6}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// At every level it checks, the bound's levels so far plus its tail stay
// at or above the whole union-bound sum U_k, and with the levels
// unbounded they close in on it: the tail never cuts U_k short, and the
// bound certifies any limit above U_k.
func TestWalkMeetingBoundMatchesUnionSum(t *testing.T) {
	const slack = 1e-9
	gs := map[string]*graph.Graph{
		"funnel":     funnel(),
		"random-40":  randomGraph(40, 200, 7),
		"random-60":  randomGraph(60, 150, 8),
		"two-halves": twoHalves(30),
	}
	for _, c := range []float64{0.6, 0.8} {
		for name, g := range gs {
			s := newDScratch(g.NumNodes())
			for k := 0; k < g.NumNodes(); k++ {
				ins := g.InNeighbors(graph.NodeID(k))
				if len(ins) == 0 {
					continue
				}
				u := unionSum(g, ins, c)
				if ok, _ := s.certifies(g, ins, c, u-slack, math.MaxInt); ok && u > slack {
					t.Errorf("c=%v %s node %d: certified %v below the union sum %v", c, name, k, u-slack, u)
				}
				if ok, _ := s.certifies(g, ins, c, u+slack, math.MaxInt); !ok {
					t.Errorf("c=%v %s node %d: not certified at %v above the union sum %v", c, name, k, u+slack, u)
				}
			}
		}
	}
}
