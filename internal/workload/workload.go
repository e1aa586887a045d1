// Package workload provides the experiment datasets and query workloads.
//
// The paper (Table 3) evaluates on twelve public SNAP/LAW graphs, up to
// 194M edges. This repository is offline and laptop-scale, so the
// registry ships synthetic stand-ins under the same names: directed
// graphs use preferential attachment (heavy-tailed in-degrees, like web
// and social graphs), AS-like and collaboration graphs use uniform random
// edges, and undirected datasets get both edge directions, matching the
// paper's treatment. Sizes are the paper's scaled down by a per-dataset
// divisor that keeps the twelve-point size progression and each graph's
// average degree; every cost in SLING, MC and Linearize depends only on
// n, m, the degree distribution and the decay factor, so the comparison
// shapes survive the substitution.
package workload

import (
	"fmt"
	"math"

	"sling/internal/graph"
	"sling/internal/rng"
)

// Kind selects a generator family.
type Kind int

const (
	// PrefAttach grows the graph by preferential attachment: each new
	// node links to existing nodes chosen proportionally to in-degree
	// (with uniform mixing), yielding the heavy-tailed in-degree
	// distributions of web and social graphs.
	PrefAttach Kind = iota
	// Uniform draws both endpoints of every edge uniformly at random
	// (Erdős–Rényi style), matching flatter-degree topologies.
	Uniform
)

func (k Kind) String() string {
	switch k {
	case PrefAttach:
		return "pref-attach"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one dataset stand-in.
type Spec struct {
	Name     string
	Directed bool
	Kind     Kind
	// Nodes and Edges are the stand-in's size at scale 1. For undirected
	// datasets Edges counts undirected edges (the Table 3 convention);
	// the generated graph stores both directions.
	Nodes, Edges int
	// PaperNodes and PaperEdges are the original Table 3 numbers, kept
	// for reporting.
	PaperNodes, PaperEdges int
	// Seed fixes generation.
	Seed uint64
}

// datasets lists the stand-ins in Table 3 order. Divisors shrink the
// originals (÷4 for the small graphs up to ÷64 for the largest) while
// preserving m/n.
var datasets = []Spec{
	{Name: "GrQc", Directed: false, Kind: Uniform, Nodes: 1311, Edges: 3624, PaperNodes: 5242, PaperEdges: 14496, Seed: 101},
	{Name: "AS", Directed: false, Kind: PrefAttach, Nodes: 1619, Edges: 3474, PaperNodes: 6474, PaperEdges: 13895, Seed: 102},
	{Name: "Wiki-Vote", Directed: true, Kind: PrefAttach, Nodes: 1789, Edges: 25922, PaperNodes: 7155, PaperEdges: 103689, Seed: 103},
	{Name: "HepTh", Directed: false, Kind: Uniform, Nodes: 2469, Edges: 6500, PaperNodes: 9877, PaperEdges: 25998, Seed: 104},
	{Name: "Enron", Directed: false, Kind: PrefAttach, Nodes: 4587, Edges: 22979, PaperNodes: 36692, PaperEdges: 183831, Seed: 105},
	{Name: "Slashdot", Directed: true, Kind: PrefAttach, Nodes: 9670, Edges: 113184, PaperNodes: 77360, PaperEdges: 905468, Seed: 106},
	{Name: "EuAll", Directed: true, Kind: PrefAttach, Nodes: 16576, Edges: 25003, PaperNodes: 265214, PaperEdges: 400045, Seed: 107},
	{Name: "NotreDame", Directed: true, Kind: PrefAttach, Nodes: 20358, Edges: 93571, PaperNodes: 325728, PaperEdges: 1497134, Seed: 108},
	{Name: "Google", Directed: true, Kind: PrefAttach, Nodes: 27366, Edges: 159533, PaperNodes: 875713, PaperEdges: 5105049, Seed: 109},
	{Name: "In-2004", Directed: true, Kind: PrefAttach, Nodes: 43216, Edges: 559908, PaperNodes: 1382908, PaperEdges: 17917053, Seed: 110},
	{Name: "LiveJournal", Directed: true, Kind: PrefAttach, Nodes: 75743, Edges: 1078028, PaperNodes: 4847571, PaperEdges: 68993773, Seed: 111},
	{Name: "Indochina", Directed: true, Kind: PrefAttach, Nodes: 115857, Edges: 3032958, PaperNodes: 7414866, PaperEdges: 194109311, Seed: 112},
}

// Datasets returns the twelve stand-ins in Table 3 order (a copy).
func Datasets() []Spec {
	out := make([]Spec, len(datasets))
	copy(out, datasets)
	return out
}

// SmallDatasets returns the four smallest graphs — the ones the paper
// uses for the accuracy experiments (Figures 5-7) and the only ones MC
// fits on.
func SmallDatasets() []Spec {
	return Datasets()[:4]
}

// ByName looks a stand-in up by its (case-sensitive) Table 3 name.
func ByName(name string) (Spec, bool) {
	for _, s := range datasets {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Generate materializes the stand-in at the given scale factor (1 = the
// registry default; 0.25 quarters node and edge counts). It panics on a
// non-positive scale.
func (s Spec) Generate(scale float64) *graph.Graph {
	if scale <= 0 {
		panic("workload: non-positive scale")
	}
	n := int(math.Round(float64(s.Nodes) * scale))
	m := int(math.Round(float64(s.Edges) * scale))
	if n < 2 {
		n = 2
	}
	if m < 1 {
		m = 1
	}
	r := rng.New(s.Seed)
	switch s.Kind {
	case PrefAttach:
		return genPrefAttach(n, m, s.Directed, r)
	case Uniform:
		return genUniform(n, m, s.Directed, r)
	default:
		panic(fmt.Sprintf("workload: unknown generator %v", s.Kind))
	}
}

// String summarizes the spec.
func (s Spec) String() string {
	dir := "directed"
	if !s.Directed {
		dir = "undirected"
	}
	return fmt.Sprintf("%s (%s, %s, n=%d m=%d; paper n=%d m=%d)",
		s.Name, dir, s.Kind, s.Nodes, s.Edges, s.PaperNodes, s.PaperEdges)
}

// genPrefAttach grows a preferential-attachment graph: node v (arriving
// after a small seed clique) draws its targets from earlier nodes, with
// probability pCopy proportionally to current in-degree (via the repeated
// endpoint list) and otherwise uniformly.
func genPrefAttach(n, m int, directed bool, r *rng.Source) *graph.Graph {
	const pCopy = 0.75
	b := graph.NewBuilder(n)
	if !directed {
		b.Undirected()
	}
	b.DropSelfLoops()
	perNode := float64(m) / float64(n-1)
	endpoints := make([]int32, 0, m)
	// Duplicate draws are common in dense graphs; count unique edges so
	// the generated m tracks the target (the experiments' costs scale
	// with m).
	seen := make(map[uint64]struct{}, m)
	insert := func(v, t int32) bool {
		if v == t {
			return false
		}
		key := uint64(uint32(v))<<32 | uint64(uint32(t))
		if !directed && t < v {
			key = uint64(uint32(t))<<32 | uint64(uint32(v))
		}
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		b.AddEdge(v, t)
		endpoints = append(endpoints, t)
		if !directed {
			endpoints = append(endpoints, v)
		}
		return true
	}
	// Seed edge so the endpoint list is never empty.
	insert(1, 0)
	added := 1
	for v := 2; v < n && added < m; v++ {
		want := int(perNode)
		if r.Float64() < perNode-float64(want) {
			want++
		}
		for e := 0; e < want && added < m; {
			var t int32
			if r.Float64() < pCopy {
				t = endpoints[r.Intn(len(endpoints))]
			} else {
				t = int32(r.Intn(v))
			}
			if insert(int32(v), t) {
				added++
			}
			// Count the attempt either way: a node whose candidate pool
			// is exhausted (small v, dense m/n) must not spin forever.
			e++
		}
	}
	// Top up to the target edge count with preferential picks, bounding
	// the attempts so near-clique targets terminate.
	for attempts := 0; added < m && attempts < 20*m; attempts++ {
		v := int32(r.Intn(n))
		var t int32
		if r.Float64() < pCopy {
			t = endpoints[r.Intn(len(endpoints))]
		} else {
			t = int32(r.Intn(n))
		}
		if insert(v, t) {
			added++
		}
	}
	return b.Build()
}

// genUniform draws m edges with uniform endpoints (no self-loops).
func genUniform(n, m int, directed bool, r *rng.Source) *graph.Graph {
	b := graph.NewBuilder(n)
	if !directed {
		b.Undirected()
	}
	b.DropSelfLoops()
	for added := 0; added < m; {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		added++
	}
	return b.Build()
}

// Pair is a query pair.
type Pair struct {
	U, V graph.NodeID
}

// RandomPairs draws count node pairs uniformly (u != v), as in the
// paper's single-pair workload (1000 random queries).
func RandomPairs(g *graph.Graph, count int, seed uint64) []Pair {
	r := rng.New(seed)
	n := g.NumNodes()
	if n < 2 {
		return nil
	}
	out := make([]Pair, 0, count)
	for len(out) < count {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		out = append(out, Pair{u, v})
	}
	return out
}

// RandomNodes draws count nodes uniformly with replacement, as in the
// paper's single-source workload (500 random queries).
func RandomNodes(g *graph.Graph, count int, seed uint64) []graph.NodeID {
	r := rng.New(seed)
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	out := make([]graph.NodeID, count)
	for i := range out {
		out[i] = int32(r.Intn(n))
	}
	return out
}
