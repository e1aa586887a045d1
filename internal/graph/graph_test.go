package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"sling/internal/rng"
)

// triangle returns the 3-cycle 0->1->2->0.
func triangle() *Graph {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNoEdges(t *testing.T) {
	g := NewBuilder(5).Build()
	if g.NumNodes() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	for v := int32(0); v < 5; v++ {
		if g.InDegree(v) != 0 || g.OutDegree(v) != 0 {
			t.Fatalf("node %d has edges in empty graph", v)
		}
	}
}

func TestTriangleAdjacency(t *testing.T) {
	g := triangle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.OutNeighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("out(0) = %v", got)
	}
	if got := g.InNeighbors(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("in(0) = %v", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong on triangle")
	}
}

func TestDedupDefault(t *testing.T) {
	b := NewBuilder(2)
	for i := 0; i < 5; i++ {
		b.AddEdge(0, 1)
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("dedup kept %d edges", g.NumEdges())
	}
}

func TestKeepDuplicates(t *testing.T) {
	b := NewBuilder(2).KeepDuplicates()
	for i := 0; i < 5; i++ {
		b.AddEdge(0, 1)
	}
	g := b.Build()
	if g.NumEdges() != 5 {
		t.Fatalf("KeepDuplicates kept %d edges, want 5", g.NumEdges())
	}
}

func TestDropSelfLoops(t *testing.T) {
	b := NewBuilder(2).DropSelfLoops()
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.NumEdges() != 1 || g.HasEdge(0, 0) {
		t.Fatalf("self loop not dropped: m=%d", g.NumEdges())
	}
}

func TestUndirectedBuilder(t *testing.T) {
	b := NewBuilder(3).Undirected()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 4 {
		t.Fatalf("undirected edge count %d, want 4", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Fatal("reverse edges missing")
	}
}

func TestUndirectedSelfLoopNotDoubled(t *testing.T) {
	b := NewBuilder(1).Undirected().KeepDuplicates()
	b.AddEdge(0, 0)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("self-loop doubled under Undirected: m=%d", g.NumEdges())
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestStats(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(1, 3)
	g := b.Build()
	s := g.Stats()
	if s.Nodes != 4 || s.Edges != 3 {
		t.Fatalf("stats n/m wrong: %+v", s)
	}
	if s.MaxInDegree != 2 {
		t.Fatalf("MaxInDegree = %d", s.MaxInDegree)
	}
	if s.Sources != 2 { // nodes 0 and 2
		t.Fatalf("Sources = %d", s.Sources)
	}
	if s.Sinks != 2 { // nodes 1? no: 1 has out-edge to 3; sinks are 1? recompute: out-degrees 0:1,1:1,2:1,3:0 -> 1 sink
		t.Logf("note: sinks=%d", s.Sinks)
	}
	if s.Sinks != 1 {
		t.Fatalf("Sinks = %d, want 1", s.Sinks)
	}
}

func TestReverse(t *testing.T) {
	g := triangle()
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Edges(func(from, to NodeID) bool {
		if !r.HasEdge(to, from) {
			t.Fatalf("reverse missing %d->%d", to, from)
		}
		return true
	})
	if r.NumEdges() != g.NumEdges() {
		t.Fatal("reverse changed edge count")
	}
}

func TestInducedSubgraph(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 0)
	g := b.Build()
	sub, mapping := g.InducedSubgraph([]NodeID{1, 2, 3})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub n=%d", sub.NumNodes())
	}
	if sub.NumEdges() != 2 { // 1->2 and 2->3
		t.Fatalf("sub m=%d", sub.NumEdges())
	}
	if mapping[0] != 1 || mapping[1] != 2 || mapping[2] != 3 {
		t.Fatalf("mapping = %v", mapping)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphDedupsKeepList(t *testing.T) {
	g := triangle()
	sub, mapping := g.InducedSubgraph([]NodeID{0, 0, 1})
	if sub.NumNodes() != 2 || len(mapping) != 2 {
		t.Fatalf("dup keep list not collapsed: n=%d", sub.NumNodes())
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := triangle()
	count := 0
	g.Edges(func(from, to NodeID) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("Edges did not stop early: %d calls", count)
	}
}

func TestReadEdgeListBasic(t *testing.T) {
	in := "# comment\n% also comment\n10 20\n20 30\n\n10 20\n"
	g, labels, err := ReadEdgeList(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d (dup should be removed)", g.NumEdges())
	}
	if labels[0] != 10 || labels[1] != 20 || labels[2] != 30 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestReadEdgeListUndirected(t *testing.T) {
	g, _, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"), &LoadOptions{Undirected: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m=%d", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"abc def\n", "1\n", "-1 2\n", "1 x\n"}
	for _, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in), nil); err == nil {
			t.Fatalf("input %q did not error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(t, 50, 300, 1)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Labels are dense IDs already, so the graphs must match edge-for-edge
	// up to isolated trailing nodes (nodes with no edges are not serialized).
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", g.NumEdges(), g2.NumEdges())
	}
}

func randomGraph(t testing.TB, n, m int, seed uint64) *Graph {
	t.Helper()
	r := rng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// Property: in/out CSRs are mutual transposes and degree sums equal m.
func TestPropertyCSRTranspose(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%200) + 1
		m := int(mRaw % 1000)
		r := rng.New(seed)
		b := NewBuilder(n)
		dup := NewBuilder(n).KeepDuplicates()
		added := map[Edge]int{}
		for i := 0; i < m; i++ {
			e := Edge{NodeID(r.Intn(n)), NodeID(r.Intn(n))}
			b.AddEdge(e.From, e.To)
			dup.AddEdge(e.From, e.To)
			added[e]++
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		// The built edges are the distinct input edges, and under
		// KeepDuplicates the input multiset.
		gd := dup.Build()
		if gd.Validate() != nil || !sameEdges(g, added, false) || !sameEdges(gd, added, true) {
			return false
		}
		inSum, outSum := 0, 0
		for v := int32(0); v < int32(n); v++ {
			inSum += g.InDegree(v)
			outSum += g.OutDegree(v)
		}
		if inSum != g.NumEdges() || outSum != g.NumEdges() {
			return false
		}
		// Every out-edge appears as an in-edge of the target.
		ok := true
		g.Edges(func(from, to NodeID) bool {
			found := false
			for _, u := range g.InNeighbors(to) {
				if u == from {
					found = true
					break
				}
			}
			if !found {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// sameEdges reports whether g's edges are exactly the keys of want, each
// once, or with want's multiplicity when multi is set.
func sameEdges(g *Graph, want map[Edge]int, multi bool) bool {
	got := map[Edge]int{}
	g.Edges(func(from, to NodeID) bool {
		got[Edge{from, to}]++
		return true
	})
	if len(got) != len(want) {
		return false
	}
	for e, c := range want {
		if !multi {
			c = 1
		}
		if got[e] != c {
			return false
		}
	}
	return true
}

func BenchmarkBuild(b *testing.B) {
	r := rng.New(1)
	const n, m = 10000, 100000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{NodeID(r.Intn(n)), NodeID(r.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges(n, edges)
	}
}

func BenchmarkInNeighbors(b *testing.B) {
	g := randomGraph(b, 10000, 100000, 3)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(g.InNeighbors(NodeID(i % 10000)))
	}
	_ = sink
}
