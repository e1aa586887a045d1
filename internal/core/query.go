package core

import (
	"math"
	"math/bits"
	"slices"

	"sling/internal/graph"
)

// Single-pair queries (Algorithm 3) plus the query-time halves of the
// Section 5.2 space reduction (exact step-1/2 reconstruction, Algorithm 5)
// and the Section 5.3 accuracy enhancement (one-step expansion of marked
// entries into H*(v)).

// Scratch holds per-query buffers so queries do not allocate. Each
// goroutine querying concurrently needs its own Scratch; ScratchPool
// hands them out.
type Scratch struct {
	// Gathered entry lists, one slot per endpoint of a pair.
	gk [2][]uint64
	gv [2][]float64

	// Fetch buffers: a node's stored entries widened to query width, one
	// slot per endpoint, and the raw bytes a ReadAt disk index reads
	// them from.
	raw []byte
	fk  [2][]uint64
	fv  [2][]float64

	// Dense accumulator for the Algorithm 5 step-2 sums, with the nodes
	// it touched both listed and set in a bitmap of n/64 words. acc and
	// seen are all-zero between calls.
	acc     []float64
	touched []int32
	seen    []uint64

	addKeys []uint64
	addVals []float64
}

// NewScratch sizes a Scratch for the index's graph.
func (x *Index) NewScratch() *Scratch {
	n := x.g.NumNodes()
	return &Scratch{acc: make([]float64, n), seen: make([]uint64, (n+63)/64)}
}

// appendExactSteps12 appends node v's exact step-1 and step-2 HPs
// (Algorithm 5) to keys/vals in key order. The step-0 entry is not
// appended; callers take it from stored entries.
func (x *Index) appendExactSteps12(v graph.NodeID, s *Scratch, keys []uint64, vals []float64) ([]uint64, []float64) {
	ins := x.g.InNeighbors(v)
	if len(ins) == 0 {
		return keys, vals
	}
	h1 := x.prm.sqrtC / float64(len(ins))
	// Step 1: one exact entry per in-neighbor, already sorted by node.
	for _, u := range ins {
		keys = append(keys, entryKey(1, u))
		vals = append(vals, h1)
	}
	// Step 2: accumulate over two-hop in-paths, recording each touched
	// node in the list and the bitmap, and the bitmap words [lo, hi)
	// they span.
	s.touched = s.touched[:0]
	lo, hi := int32(math.MaxInt32), int32(0)
	for _, u := range ins {
		uins := x.g.InNeighbors(u)
		if len(uins) == 0 {
			continue
		}
		add := x.prm.sqrtC * h1 / float64(len(uins))
		for _, y := range uins {
			if s.acc[y] == 0 {
				s.touched = append(s.touched, y)
				s.seen[y>>6] |= 1 << (y & 63)
				lo, hi = min(lo, y>>6), max(hi, y>>6+1)
			}
			s.acc[y] += add
		}
	}
	t := len(s.touched)
	if t == 0 {
		return keys, vals
	}
	// Emit in node order by whichever is cheaper: sorting the t touched
	// IDs (~t·log₂t) or walking the hi-lo bitmap words. Either way acc
	// and seen are left all-zero.
	if t*bits.Len(uint(t)) >= int(hi-lo) {
		for w := lo; w < hi; w++ {
			word := s.seen[w]
			s.seen[w] = 0
			for ; word != 0; word &= word - 1 {
				y := w<<6 | int32(bits.TrailingZeros64(word))
				keys = append(keys, entryKey(2, y))
				vals = append(vals, s.acc[y])
				s.acc[y] = 0
			}
		}
		return keys, vals
	}
	// slices.Sort, not sort.Slice: the closure-into-interface boxing
	// would allocate on a query path that must stay allocation-free.
	slices.Sort(s.touched)
	for _, y := range s.touched {
		keys = append(keys, entryKey(2, y))
		vals = append(vals, s.acc[y])
		s.acc[y] = 0
		s.seen[y>>6] = 0
	}
	return keys, vals
}

// gatherFrom materializes node v's effective HP set from its stored
// entries, already widened into slot's fetch buffers: the exact
// step-1/2 reconstruction when v is space-reduced and the H*(v)
// enhancement expansion when the index was built with Enhance, sorted
// by key. It is the one transformation between a fetch and a query,
// whether the entries came from memory, a mapping, or positioned reads.
// The result is read-only to the caller and valid until the slot is
// next used.
//
// When v needs neither treatment the widened entries are the result;
// otherwise the result is built in the slot's gather buffers, which are
// updated in place so their growth is kept.
func (x *Index) gatherFrom(v graph.NodeID, stored []uint64, storedVals []float64, s *Scratch, slot int) ([]uint64, []float64) {
	enhance := x.prm.enhance && x.markOff[v+1] > x.markOff[v]
	if !x.reduced[v] && !enhance {
		return stored, storedVals
	}
	keys, vals := x.reconstruct(v, stored, storedVals, s, slot)
	if enhance {
		lo, hi := x.markOff[v], x.markOff[v+1]
		keys, vals = x.expandMarks(x.marks[lo:hi], stored, storedVals, s, keys, vals)
		s.gk[slot], s.gv[slot] = keys, vals
	}
	return keys, vals
}

// reconstruct copies node v's stored entries into slot's gather buffers
// and, when v is space-reduced, interleaves its exact step-1/2 entries
// (Algorithm 5) between the stored step 0 and steps >= 3, preserving key
// order. It is the effective H(v) without the Section 5.3 enhancement.
func (x *Index) reconstruct(v graph.NodeID, stored []uint64, storedVals []float64, s *Scratch, slot int) ([]uint64, []float64) {
	keys, vals := s.gk[slot][:0], s.gv[slot][:0]
	if x.reduced[v] {
		cut := findStep(stored, 1)
		keys = append(keys, stored[:cut]...)
		vals = append(vals, storedVals[:cut]...)
		keys, vals = x.appendExactSteps12(v, s, keys, vals)
		keys = append(keys, stored[cut:]...)
		vals = append(vals, storedVals[cut:]...)
	} else {
		keys = append(keys, stored...)
		vals = append(vals, storedVals...)
	}
	s.gk[slot], s.gv[slot] = keys, vals
	return keys, vals
}

// expandMarks implements the H*(v) construction of Section 5.3: each
// marked entry h̃^(ℓ)(v, j) donates √c/|I(j)|·h̃^(ℓ)(v, j) to the step-ℓ+1
// entry of every in-neighbor of j that H(v) does not already cover.
// marks are positions relative to the stored entry arrays. The additions
// are merged into keys/vals, which must be sorted; the merged result is
// returned.
func (x *Index) expandMarks(marks []int32, storedK []uint64, storedV []float64, s *Scratch, keys []uint64, vals []float64) ([]uint64, []float64) {
	s.addKeys, s.addVals = s.addKeys[:0], s.addVals[:0]
	for _, rel := range marks {
		l := keyStep(storedK[rel])
		j := keyNode(storedK[rel])
		h := storedV[rel]
		ins := x.g.InNeighbors(j)
		if len(ins) == 0 {
			continue
		}
		add := x.prm.sqrtC * h / float64(len(ins))
		for _, k := range ins {
			key := entryKey(l+1, k)
			if lookupKey(keys, key) {
				continue // H(v) already covers it with a tighter bound
			}
			s.addKeys = append(s.addKeys, key)
			s.addVals = append(s.addVals, add)
		}
	}
	if len(s.addKeys) == 0 {
		return keys, vals
	}
	sortEntries(s.addKeys, s.addVals)
	// Fold duplicates (several marked entries can donate to the same k).
	w := 0
	for i := 0; i < len(s.addKeys); i++ {
		if w > 0 && s.addKeys[w-1] == s.addKeys[i] {
			s.addVals[w-1] += s.addVals[i]
			continue
		}
		s.addKeys[w], s.addVals[w] = s.addKeys[i], s.addVals[i]
		w++
	}
	s.addKeys, s.addVals = s.addKeys[:w], s.addVals[:w]
	// Merge the sorted additions into the sorted base, in place at the
	// tail of keys/vals.
	keys = append(keys, s.addKeys...)
	vals = append(vals, s.addVals...)
	sortEntries(keys, vals)
	return keys, vals
}

// joinScore merge-joins two sorted HP entry lists and accumulates
// Σ h_u·d_k·h_v over shared (step, node) keys.
func joinScore(ku []uint64, vu []float64, kv []uint64, vv []float64, d []float64) float64 {
	total := 0.0
	i, j := 0, 0
	for i < len(ku) && j < len(kv) {
		a, b := ku[i], kv[j]
		switch {
		case a == b:
			total += vu[i] * d[keyNode(a)] * vv[j]
			i++
			j++
		case a < b:
			// Galloping would help skewed lists; linear advance is fine at
			// the O(1/ε) sizes SLING guarantees.
			i++
		default:
			j++
		}
	}
	return total
}
