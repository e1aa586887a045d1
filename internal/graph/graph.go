// Package graph provides the directed-graph substrate shared by every
// SimRank method in this repository.
//
// Graphs are stored in compressed sparse row (CSR) form twice: once over
// outgoing edges and once over incoming edges. SimRank is defined over
// in-neighbors (reverse random walks), so the in-CSR is the hot structure;
// the out-CSR drives the local-update propagation of SLING's Algorithm 2
// and Algorithm 6. Node identifiers are dense int32 indices in [0, n).
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node as a dense index in [0, NumNodes).
type NodeID = int32

// Edge is a directed edge From -> To.
type Edge struct {
	From, To NodeID
}

// Graph is an immutable directed graph in dual-CSR form.
// Build one with a Builder or the loaders in this package.
type Graph struct {
	n int32
	m int64

	// Out-CSR: outTo[outOff[v]:outOff[v+1]] are v's out-neighbors.
	outOff []int64
	outTo  []int32

	// In-CSR: inFrom[inOff[v]:inOff[v+1]] are v's in-neighbors.
	inOff  []int64
	inFrom []int32
}

// NumNodes returns n, the number of nodes.
func (g *Graph) NumNodes() int { return int(g.n) }

// NumEdges returns m, the number of directed edges.
func (g *Graph) NumEdges() int { return int(g.m) }

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// OutNeighbors returns the out-neighbor slice of v.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v NodeID) []int32 {
	return g.outTo[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the in-neighbor slice of v.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v NodeID) []int32 {
	return g.inFrom[g.inOff[v]:g.inOff[v+1]]
}

// HasEdge reports whether the directed edge u -> v exists.
// Neighbor lists are sorted, so this is a binary search.
func (g *Graph) HasEdge(u, v NodeID) bool {
	ns := g.OutNeighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Edges calls fn for every directed edge. It stops early if fn returns false.
func (g *Graph) Edges(fn func(from, to NodeID) bool) {
	for v := int32(0); v < g.n; v++ {
		for _, w := range g.OutNeighbors(v) {
			if !fn(v, w) {
				return
			}
		}
	}
}

// Stats summarizes the degree structure of a graph.
type Stats struct {
	Nodes        int
	Edges        int
	MaxInDegree  int
	MaxOutDegree int
	AvgDegree    float64 // m/n
	Sources      int     // nodes with in-degree 0 (dangling for reverse walks)
	Sinks        int     // nodes with out-degree 0
}

// Stats computes degree statistics in one pass.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: int(g.n), Edges: int(g.m)}
	if g.n > 0 {
		s.AvgDegree = float64(g.m) / float64(g.n)
	}
	for v := int32(0); v < g.n; v++ {
		in, out := g.InDegree(v), g.OutDegree(v)
		if in > s.MaxInDegree {
			s.MaxInDegree = in
		}
		if out > s.MaxOutDegree {
			s.MaxOutDegree = out
		}
		if in == 0 {
			s.Sources++
		}
		if out == 0 {
			s.Sinks++
		}
	}
	return s
}

// String implements fmt.Stringer with a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, g.m)
}

// Bytes returns the in-memory footprint of the dual-CSR representation.
func (g *Graph) Bytes() int64 {
	return int64(len(g.outOff))*8 + int64(len(g.inOff))*8 +
		int64(len(g.outTo))*4 + int64(len(g.inFrom))*4
}

// Validate checks internal CSR invariants. It is used by tests and by the
// loaders after deserialization; a healthy Graph always passes.
func (g *Graph) Validate() error {
	if int64(len(g.outTo)) != g.m || int64(len(g.inFrom)) != g.m {
		return fmt.Errorf("graph: edge array length mismatch: out=%d in=%d m=%d",
			len(g.outTo), len(g.inFrom), g.m)
	}
	if len(g.outOff) != int(g.n)+1 || len(g.inOff) != int(g.n)+1 {
		return errors.New("graph: offset array length mismatch")
	}
	if g.outOff[0] != 0 || g.inOff[0] != 0 || g.outOff[g.n] != g.m || g.inOff[g.n] != g.m {
		return errors.New("graph: offset endpoints invalid")
	}
	for v := int32(0); v < g.n; v++ {
		if g.outOff[v] > g.outOff[v+1] || g.inOff[v] > g.inOff[v+1] {
			return fmt.Errorf("graph: non-monotone offsets at node %d", v)
		}
		ns := g.OutNeighbors(v)
		for i, w := range ns {
			if w < 0 || w >= g.n {
				return fmt.Errorf("graph: out-edge %d->%d out of range", v, w)
			}
			if i > 0 && ns[i-1] > w {
				return fmt.Errorf("graph: out-neighbors of %d not sorted", v)
			}
		}
		ps := g.InNeighbors(v)
		for i, u := range ps {
			if u < 0 || u >= g.n {
				return fmt.Errorf("graph: in-edge %d->%d out of range", u, v)
			}
			if i > 0 && ps[i-1] > u {
				return fmt.Errorf("graph: in-neighbors of %d not sorted", v)
			}
		}
	}
	// The two CSRs must describe the same edge multiset.
	var outSum, inSum uint64
	for v := int32(0); v < g.n; v++ {
		for _, w := range g.OutNeighbors(v) {
			outSum += edgeHash(v, w)
		}
		for _, u := range g.InNeighbors(v) {
			inSum += edgeHash(u, v)
		}
	}
	if outSum != inSum {
		return errors.New("graph: in/out CSR describe different edge multisets")
	}
	return nil
}

func edgeHash(u, v int32) uint64 {
	x := uint64(uint32(u))<<32 | uint64(uint32(v))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n          int32
	edges      []Edge
	dedup      bool
	selfLoops  bool
	undirected bool
}

// NewBuilder returns a Builder for a graph with n nodes.
// By default duplicate edges are removed and self-loops are kept.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: int32(n), dedup: true, selfLoops: true}
}

// KeepDuplicates makes the builder retain parallel edges.
// SimRank's definition uses neighbor sets, so the default removes them.
func (b *Builder) KeepDuplicates() *Builder { b.dedup = false; return b }

// DropSelfLoops makes the builder discard u->u edges.
func (b *Builder) DropSelfLoops() *Builder { b.selfLoops = false; return b }

// Undirected makes every added edge also insert its reverse, matching how
// the paper treats the undirected datasets of Table 3.
func (b *Builder) Undirected() *Builder { b.undirected = true; return b }

// AddEdge records the directed edge from -> to.
// It panics if either endpoint is out of range.
func (b *Builder) AddEdge(from, to NodeID) {
	if from < 0 || from >= b.n || to < 0 || to >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, b.n))
	}
	if !b.selfLoops && from == to {
		return
	}
	b.edges = append(b.edges, Edge{from, to})
	if b.undirected && from != to {
		b.edges = append(b.edges, Edge{to, from})
	}
}

// Build finalizes the graph. The builder can be reused afterwards; its
// accumulated edges are retained.
func (b *Builder) Build() *Graph {
	// Sort the edges by (From, To) as packed From<<32|To keys: endpoints
	// are non-negative, so key order is edge order, and slices.Sort on
	// plain integers makes no closure call per comparison. The dynamic
	// tier rebuilds its graph on every update batch, so this sort sits on
	// its write path.
	keys := make([]uint64, len(b.edges))
	for i, e := range b.edges {
		keys[i] = uint64(e.From)<<32 | uint64(e.To)
	}
	slices.Sort(keys)
	if b.dedup {
		keys = slices.Compact(keys)
	}
	from := func(k uint64) NodeID { return NodeID(k >> 32) }
	to := func(k uint64) NodeID { return NodeID(uint32(k)) }

	g := &Graph{n: b.n, m: int64(len(keys))}
	g.outOff = make([]int64, b.n+1)
	g.inOff = make([]int64, b.n+1)
	g.outTo = make([]int32, len(keys))
	g.inFrom = make([]int32, len(keys))

	// Out-CSR directly from the sorted edge list.
	for _, k := range keys {
		g.outOff[from(k)+1]++
	}
	for v := int32(0); v < b.n; v++ {
		g.outOff[v+1] += g.outOff[v]
	}
	for i, k := range keys {
		g.outTo[i] = to(k)
	}
	// In-CSR via counting sort on To; stable scan keeps in-neighbors sorted
	// because edges are sorted by (From, To) and we bucket by To.
	for _, k := range keys {
		g.inOff[to(k)+1]++
	}
	for v := int32(0); v < b.n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	cursor := make([]int64, b.n)
	copy(cursor, g.inOff[:b.n])
	for _, k := range keys {
		g.inFrom[cursor[to(k)]] = from(k)
		cursor[to(k)]++
	}
	return g
}

// FromEdges builds a directed graph with n nodes from an edge slice,
// removing duplicates and keeping self-loops.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.From, e.To)
	}
	return b.Build()
}

// Reverse returns the transpose graph (every edge flipped). The result
// shares no storage with g.
func (g *Graph) Reverse() *Graph {
	rev := &Graph{n: g.n, m: g.m}
	rev.outOff = append([]int64(nil), g.inOff...)
	rev.outTo = append([]int32(nil), g.inFrom...)
	rev.inOff = append([]int64(nil), g.outOff...)
	rev.inFrom = append([]int32(nil), g.outTo...)
	return rev
}

// InducedSubgraph returns the subgraph induced by keep (a set of node IDs)
// with nodes renumbered densely in the order given, plus the mapping from
// new IDs back to original IDs.
func (g *Graph) InducedSubgraph(keep []NodeID) (*Graph, []NodeID) {
	newID := make(map[NodeID]NodeID, len(keep))
	mapping := make([]NodeID, 0, len(keep))
	for _, v := range keep {
		if _, dup := newID[v]; dup {
			continue
		}
		newID[v] = NodeID(len(mapping))
		mapping = append(mapping, v)
	}
	b := NewBuilder(len(mapping))
	for _, v := range mapping {
		for _, w := range g.OutNeighbors(v) {
			if nw, ok := newID[w]; ok {
				b.AddEdge(newID[v], nw)
			}
		}
	}
	return b.Build(), mapping
}
