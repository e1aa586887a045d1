package core

import (
	"math"
	"slices"
	"sort"

	"sling/internal/graph"
)

// An HP entry h̃^(ℓ)(v, k) is keyed by key = ℓ<<32 | k, so a node's entries
// sorted by key are ordered by (step, meeting node) — exactly the order the
// Algorithm 3 merge join needs. Every query-time list (gathered entries,
// fragments, the shard wire format) uses this 64-bit key.
func entryKey(l int, k int32) uint64 {
	return uint64(l)<<32 | uint64(uint32(k))
}

func keyStep(key uint64) int   { return int(key >> 32) }
func keyNode(key uint64) int32 { return int32(uint32(key)) }
func stepFloor(l int) uint64   { return uint64(l) << 32 }

// A stored entry packs the same (step, node) pair into 32 bits,
// ℓ<<nodeBits | k, where nodeBits leaves the high bits just wide enough
// for maxStoredStep (see resolved.keyLayout). The packing is monotone in
// (step, node), so stored keys sort exactly like their 64-bit forms.
func packKey(key uint64, nodeBits uint) uint32 {
	return uint32(key>>32)<<nodeBits | uint32(key)
}

func unpackKey(key uint32, nodeBits uint) uint64 {
	return uint64(key>>nodeBits)<<32 | uint64(key&(1<<nodeBits-1))
}

// Index is an in-memory SLING index over a graph. It is immutable after
// Build and safe for concurrent queries as long as each goroutine uses its
// own Scratch.
type Index struct {
	g   *graph.Graph
	prm resolved

	d []float64 // d̃_k per node

	// HP sets in CSR layout: entries of node v are
	// keys/vals[off[v]:off[v+1]], sorted by key. Keys are packed to 32
	// bits (packKey) and values rounded to float32 once, when the CSR is
	// assembled, so a built index and a loaded one hold the same bits;
	// entries widens a node's range to query width.
	off  []int64
	keys []uint32
	vals []float32

	// reduced[v] marks nodes whose step-1/2 entries were dropped
	// (Section 5.2) and must be recomputed exactly at query time.
	reduced []bool

	// Enhancement marks (Section 5.3): positions (relative to off[v]) of
	// the marked entries of node v, in CSR layout. Empty unless built with
	// Enhance.
	markOff []int64
	marks   []int32
}

// Graph returns the graph the index was built over.
func (x *Index) Graph() *graph.Graph { return x.g }

// C returns the decay factor.
func (x *Index) C() float64 { return x.prm.c }

// Eps returns the configured worst-case error target.
func (x *Index) Eps() float64 { return x.prm.eps }

// Theta returns the resolved HP pruning threshold.
func (x *Index) Theta() float64 { return x.prm.theta }

// EpsD returns the resolved correction-factor error target.
func (x *Index) EpsD() float64 { return x.prm.epsD }

// ErrorBound returns the ε guaranteed by Theorem 1 for the resolved
// parameters (at most Eps when the defaults were used).
func (x *Index) ErrorBound() float64 { return x.prm.errorBound() }

// D returns the approximate correction factor of node k.
func (x *Index) D(k graph.NodeID) float64 { return x.d[k] }

// NumEntries returns the total number of stored HP entries.
func (x *Index) NumEntries() int { return len(x.keys) }

// EntriesOf returns node v's stored HP entries, widened into fresh
// slices. With space reduction active this excludes the dropped
// step-1/2 entries; entry-level consumers normally want FragmentOf,
// the effective set queries see.
func (x *Index) EntriesOf(v graph.NodeID) (keys []uint64, vals []float64) {
	var s Scratch
	return x.widen(x.keys[x.off[v]:x.off[v+1]], x.vals[x.off[v]:x.off[v+1]], &s, 0)
}

// widen decodes stored entries into the scratch slot's query-width
// buffers: the one decode step behind every fetch, whether the stored
// columns are resident, mapped, or read from disk.
func (x *Index) widen(keys []uint32, vals []float32, s *Scratch, slot int) ([]uint64, []float64) {
	nb := x.prm.nodeBits
	k := slices.Grow(s.fk[slot][:0], len(keys))[:len(keys)]
	for i, key := range keys {
		k[i] = unpackKey(key, nb)
	}
	v := slices.Grow(s.fv[slot][:0], len(vals))[:len(vals)]
	for i, h := range vals {
		v[i] = float64(h)
	}
	s.fk[slot], s.fv[slot] = k, v
	return k, v
}

// Reduced reports whether node v's step-1/2 entries are recomputed at
// query time rather than stored.
func (x *Index) Reduced(v graph.NodeID) bool { return x.reduced[v] }

// Bytes returns the in-memory footprint of the index proper (correction
// factors, HP sets, flags, marks), excluding the graph.
func (x *Index) Bytes() int64 {
	b := int64(len(x.d)) * 8
	b += int64(len(x.off)) * 8
	b += int64(len(x.keys)) * 4
	b += int64(len(x.vals)) * 4
	b += int64(len(x.reduced))
	b += int64(len(x.markOff)) * 8
	b += int64(len(x.marks)) * 4
	return b
}

// IndexStats summarizes a built index.
type IndexStats struct {
	Nodes          int
	Entries        int     // stored HP entries
	MaxEntries     int     // largest single H(v)
	AvgEntries     float64 // Entries / Nodes
	MaxStep        int     // deepest stored step ℓ
	ReducedNodes   int     // nodes with step-1/2 entries dropped
	MarkedEntries  int     // Section 5.3 marks
	Bytes          int64
	TheoreticalCap float64 // per-node bound Σ_ℓ (√c)^ℓ/θ = 1/(θ(1−√c))
	Version        int     // SLIX format version the index serializes as
	NodeBits       int     // low bits of a stored key that name the node
}

// Stats computes summary statistics.
func (x *Index) Stats() IndexStats {
	st := IndexStats{
		Nodes:          len(x.d),
		Entries:        len(x.keys),
		Bytes:          x.Bytes(),
		MarkedEntries:  len(x.marks),
		TheoreticalCap: 1 / (x.prm.theta * (1 - x.prm.sqrtC)),
		Version:        indexVersion,
		NodeBits:       int(x.prm.nodeBits),
	}
	if st.Nodes > 0 {
		st.AvgEntries = float64(st.Entries) / float64(st.Nodes)
	}
	for v := 0; v < st.Nodes; v++ {
		cnt := int(x.off[v+1] - x.off[v])
		if cnt > st.MaxEntries {
			st.MaxEntries = cnt
		}
		if x.reduced[v] {
			st.ReducedNodes++
		}
	}
	for _, k := range x.keys {
		if l := int(k >> x.prm.nodeBits); l > st.MaxStep {
			st.MaxStep = l
		}
	}
	return st
}

// maxStoredStep returns an upper bound on any stored step: beyond it
// (√c)^ℓ ≤ θ so Algorithm 2 prunes everything.
func maxStoredStep(sqrtC, theta float64) int {
	if theta >= 1 {
		return 0
	}
	return int(math.Log(theta)/math.Log(sqrtC)) + 2
}

// findStep returns the position of the first entry of keys with step >= l.
func findStep(keys []uint64, l int) int {
	floor := stepFloor(l)
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= floor })
}

// lookupKey reports whether key is present in the sorted slice keys.
func lookupKey(keys []uint64, key uint64) bool {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
	return i < len(keys) && keys[i] == key
}
