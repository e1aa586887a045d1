package core

import (
	"sort"

	"sling/internal/graph"
)

// The inverted-list single-source approach (Section 6 of the paper).
//
// For every (step ℓ, meeting node k) key that occurs in any H(v), an
// inverted list L(k, ℓ) records the nodes v with h̃^(ℓ)(v, k) > 0. A
// single-source query from u then touches only the lists keyed by H(u):
//
//	s̃(u, v) = Σ_{(ℓ,k) ∈ H(u)} h̃^(ℓ)(u,k) · d̃_k · h̃^(ℓ)(v,k),
//
// accumulated per v. The paper notes the trade-off this type makes
// concrete: queries get faster than the straightforward Algorithm 3 loop,
// but the lists duplicate every HP entry (≈2× space), and they cannot
// coexist with the Section 5.2 space reduction — the reduced step-1/2
// entries must be materialized back. Algorithm 6
// (ScratchPool.SingleSource) is the paper's middle ground; Inverted
// exists to reproduce the comparison and to serve workloads that want
// the fastest single-source at any space cost.

// Inverted is the inverted-list companion structure of an Index.
type Inverted struct {
	x *Index

	// keys are the distinct (step, node) entry keys, sorted; list i spans
	// nodes/vals[off[i]:off[i+1]] with nodes sorted ascending.
	keys  []uint64
	off   []int64
	nodes []int32
	vals  []float64
}

// BuildInverted materializes the inverted lists for the index. Entries
// dropped by the space reduction are reconstructed exactly (Algorithm 5),
// so the lists describe the same effective HP sets queries use. The
// Section 5.3 enhancement is a query-time construction and is not
// reflected in the lists.
func (x *Index) BuildInverted() *Inverted {
	n := len(x.d)
	type entry struct {
		key uint64
		v   int32
		h   float64
	}
	var all []entry
	s := x.NewScratch()
	for v := 0; v < n; v++ {
		stored, storedVals, _ := x.entries(graph.NodeID(v), s, 0)
		keys, vals := x.reconstruct(graph.NodeID(v), stored, storedVals, s, 0)
		for i := range keys {
			all = append(all, entry{key: keys[i], v: int32(v), h: vals[i]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].key != all[j].key {
			return all[i].key < all[j].key
		}
		return all[i].v < all[j].v
	})
	iv := &Inverted{x: x}
	for i, e := range all {
		if i == 0 || all[i-1].key != e.key {
			iv.keys = append(iv.keys, e.key)
			iv.off = append(iv.off, int64(i))
		}
		iv.nodes = append(iv.nodes, e.v)
		iv.vals = append(iv.vals, e.h)
	}
	iv.off = append(iv.off, int64(len(all)))
	return iv
}

// Bytes returns the memory footprint of the inverted lists.
func (iv *Inverted) Bytes() int64 {
	return int64(len(iv.keys))*8 + int64(len(iv.off))*8 +
		int64(len(iv.nodes))*4 + int64(len(iv.vals))*8
}

// NumLists returns the number of distinct (step, node) keys.
func (iv *Inverted) NumLists() int { return len(iv.keys) }

// list returns the inverted list for key, or empty slices if absent.
func (iv *Inverted) list(key uint64) ([]int32, []float64) {
	i := sort.Search(len(iv.keys), func(i int) bool { return iv.keys[i] >= key })
	if i == len(iv.keys) || iv.keys[i] != key {
		return nil, nil
	}
	return iv.nodes[iv.off[i]:iv.off[i+1]], iv.vals[iv.off[i]:iv.off[i+1]]
}

// SingleSource answers s̃(u, ·) by scanning the inverted lists keyed by
// H(u); out is reused when it has capacity n. On an index built without
// Enhance the result equals the Algorithm-3 loop (ScratchPool's
// SingleSourceNaive) exactly, same entry sets and same arithmetic, at a
// fraction of the cost. With Enhance it does not: the lists leave out
// the query-time H*(v) expansion that the loop applies.
func (iv *Inverted) SingleSource(u graph.NodeID, s *Scratch, out []float64) []float64 {
	x := iv.x
	if s == nil {
		s = x.NewScratch()
	}
	n := x.g.NumNodes()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	clear(out)
	// Effective H(u) without the query-time enhancement, matching how the
	// lists were built.
	stored, storedVals, _ := x.entries(u, s, 0)
	keys, vals := x.reconstruct(u, stored, storedVals, s, 0)
	for i, key := range keys {
		hu := vals[i] * x.d[keyNode(key)]
		nodes, hs := iv.list(key)
		for j, v := range nodes {
			out[v] += hu * hs[j]
		}
	}
	return out
}
