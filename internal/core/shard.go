package core

import (
	"fmt"

	"sling/internal/graph"
)

// Shard-side primitives for sharded serving.
//
// A shard index is a Slice of the full index: the complete O(n) metadata
// (graph binding, parameters, d̃, reduced flags) with HP entries kept only
// for a contiguous node range. That split is exactly what makes node-range
// sharding correct for SLING:
//
//   - a pair score is a merge join of the two endpoints' HP fragments
//     (Algorithm 3), so the router can fetch each fragment from the shard
//     owning it and join locally — FragmentOf carries the d̃ value per
//     entry so the join needs no index at all (JoinScoreD);
//   - single-source propagation (Algorithm 6) reads only the graph, d̃,
//     and the parameters, which every shard holds in full, so the shard
//     owning u can propagate u's fragment over the whole graph and answer
//     single-source and top-k queries for u on its own.
//
// Every path reuses the single-index query code verbatim, so sharded
// answers are bitwise-identical to the unsharded reference.

// fragmentOf gathers node u's effective HP entry list from src (stored
// entries with exact step-1/2 reconstruction and enhancement expansion
// applied, exactly as queries see it) into freshly allocated slices,
// plus the d̃ value of each entry's meeting node. The result never
// aliases index storage or scratch, so it can outlive both: the shape a
// sharded router ships between shards. It is the one fragment path
// behind Index.FragmentOf, DiskIndex.FragmentOf and ScratchPool.Fragment.
func fragmentOf(x *Index, src entrySource, u graph.NodeID, s *Scratch) (keys []uint64, vals, dvals []float64, err error) {
	gk, gv, err := x.gatherAt(src, u, s, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	keys = append([]uint64(nil), gk...)
	vals = append([]float64(nil), gv...)
	dvals = make([]float64, len(keys))
	for i, key := range keys {
		dvals[i] = x.d[keyNode(key)]
	}
	return keys, vals, dvals, nil
}

// FragmentOf is fragmentOf over the resident entries, with caller
// scratch (a nil s allocates one).
func (x *Index) FragmentOf(u graph.NodeID, s *Scratch) (keys []uint64, vals, dvals []float64) {
	if s == nil {
		s = x.NewScratch()
	}
	// The resident source cannot fail.
	keys, vals, dvals, _ = fragmentOf(x, x, u, s)
	return keys, vals, dvals
}

// FragmentOf is fragmentOf over disk-resident entries: one positioned
// read (or a zero-copy view slice) plus the same gather transformations.
func (d *DiskIndex) FragmentOf(u graph.NodeID, s *Scratch) (keys []uint64, vals, dvals []float64, err error) {
	if s == nil {
		s = d.NewScratch()
	}
	return fragmentOf(d.meta, d, u, s)
}

// JoinScoreD is the Algorithm 3 merge join over two gathered fragments
// with u's d̃ values carried per entry instead of looked up in an index:
// Σ h_u·d̃_k·h_v over shared keys. At a key match du[i] == d[keyNode(key)],
// and the product keeps joinScore's left-to-right grouping, so the result
// is bitwise-identical to joinScore on the same fragments.
func JoinScoreD(ku []uint64, vu, du []float64, kv []uint64, vv []float64) float64 {
	total := 0.0
	i, j := 0, 0
	for i < len(ku) && j < len(kv) {
		a, b := ku[i], kv[j]
		switch {
		case a == b:
			total += vu[i] * du[i] * vv[j]
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return total
}

// Slice returns a shard index owning the contiguous node range [lo, hi):
// the full graph binding, parameters, d̃, and reduced flags (all O(n),
// needed to gather owned fragments and propagate them over the whole
// graph), with HP entries and enhancement marks kept only for the owned
// nodes. The returned index shares the graph with the receiver but
// copies every array it keeps, serializes as a standard SLIX file, and
// answers identically to the full index for any query that touches only
// owned entries. lo and hi are clamped into [0, n].
func (x *Index) Slice(lo, hi int) *Index {
	n := len(x.d)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	sx := &Index{
		g:       x.g,
		prm:     x.prm,
		d:       append([]float64(nil), x.d...),
		reduced: append([]bool(nil), x.reduced...),
		off:     make([]int64, n+1),
		markOff: make([]int64, n+1),
		keys:    append([]uint32(nil), x.keys[x.off[lo]:x.off[hi]]...),
		vals:    append([]float32(nil), x.vals[x.off[lo]:x.off[hi]]...),
		marks:   append([]int32(nil), x.marks[x.markOff[lo]:x.markOff[hi]]...),
	}
	for v := lo; v < hi; v++ {
		sx.off[v+1] = x.off[v+1] - x.off[lo]
		sx.markOff[v+1] = x.markOff[v+1] - x.markOff[lo]
	}
	for v := hi; v < n; v++ {
		sx.off[v+1] = sx.off[hi]
		sx.markOff[v+1] = sx.markOff[hi]
	}
	return sx
}

// EntryBytes returns the serialized size of each node's stored HP
// entries (8 bytes per entry: a 32-bit key and a float32 value), the
// weight vector a byte-balancing shard planner partitions over.
func (x *Index) EntryBytes() []int64 {
	n := len(x.d)
	w := make([]int64, n)
	for v := 0; v < n; v++ {
		w[v] = 8 * (x.off[v+1] - x.off[v])
	}
	return w
}

// Fragment is fragmentOf over the pool's entry source, with pooled
// scratch.
func (p *ScratchPool) Fragment(u graph.NodeID) (keys []uint64, vals, dvals []float64, err error) {
	s := p.Scratch()
	keys, vals, dvals, err = fragmentOf(p.x, p.src, u, s)
	p.PutScratch(s)
	return keys, vals, dvals, err
}

// CheckFragment rejects keys and vals that no gather of this index could
// have produced, before they reach propagation: mismatched lengths, keys
// not strictly ascending, a meeting node outside the graph, a step deeper
// than any a gather emits (maxStep = maxStoredStep+2), or a value that is
// not a probability in [0, 1]. The ascending check guards correctness:
// propagation finds each step group by scanning from the tail, so a key
// out of order would be silently left out of the answer. The step bound
// caps a fragment's cost at maxStep+1 levels of one hop each. A fragment
// from outside the process passes through here before SourceSlice or
// TopSlice.
func (p *ScratchPool) CheckFragment(keys []uint64, vals []float64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("fragment has %d keys but %d values", len(keys), len(vals))
	}
	n := p.x.g.NumNodes()
	maxStep := maxStoredStep(p.x.prm.sqrtC, p.x.prm.theta) + 2
	for i, key := range keys {
		if i > 0 && key <= keys[i-1] {
			return fmt.Errorf("fragment entry %d is not above entry %d", i, i-1)
		}
		if k := keyNode(key); k < 0 || int(k) >= n {
			return fmt.Errorf("fragment entry %d names node %d of a %d-node graph", i, k, n)
		}
		if l := keyStep(key); l > maxStep {
			return fmt.Errorf("fragment entry %d has step %d, deeper than %d", i, l, maxStep)
		}
		if v := vals[i]; !(v >= 0 && v <= 1) {
			return fmt.Errorf("fragment entry %d has value %v", i, v)
		}
	}
	return nil
}

// SourceSlice propagates an already-gathered fragment (Algorithm 6 over
// the full node space) and returns a fresh copy of the [lo, hi) slice of
// the resulting score vector, with pooled scratch. Propagation uses only
// the memory-resident metadata, so it fetches nothing and cannot fail.
func (p *ScratchPool) SourceSlice(keys []uint64, vals []float64, lo, hi int) []float64 {
	s := p.Source()
	out := p.x.sliceFrom(keys, vals, lo, hi, s)
	p.PutSource(s)
	return out
}

// TopSlice propagates a fragment and selects the local top-k of the
// [lo, hi) node range over the touched nodes only, with pooled scratch.
func (p *ScratchPool) TopSlice(keys []uint64, vals []float64, k int, skip graph.NodeID, lo, hi int) []TopEntry {
	s := p.Source()
	top := p.x.topFrom(keys, vals, k, skip, lo, hi, s)
	p.PutSource(s)
	return top
}
