package core

import (
	"slices"

	"sling/internal/graph"
)

// Top-k selection over single-source scores.
//
// A similarity service overwhelmingly asks "who are the k most similar
// nodes to u" for k ≪ n, so materializing and fully sorting an n-element
// candidate list per query (O(n log n) time, O(n) garbage) is the wrong
// shape. Every selection here keeps a min-heap of at most k entries
// instead, and the only allocation is the result the caller keeps.
//
// The served top-k paths (TopK, SourceTop, TopSlice) go further: the
// Algorithm 6 propagation lists the nodes it leaves nonzero (on average
// under 1% of n on the Google stand-in), so the heap runs over that hit
// list alone and only the hit entries are cleared afterwards —
// O(nnz log k) per query with no O(n) scan or clear. SelectTop and
// SelectTopRange are the same selection over a dense score vector.

// TopEntry is one (node, score) result of a top-k selection.
type TopEntry struct {
	Node  graph.NodeID
	Score float64
}

// WorseThan reports whether a ranks strictly behind b in top-k order.
// Ordering is total and deterministic: higher score first, ties broken by
// smaller node ID. It is exported so the sharded router can check a
// shard's top list against exactly the selection order used here.
func (a TopEntry) WorseThan(b TopEntry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// SelectTop returns the k highest-scoring entries of scores in descending
// score order (ties broken by ascending node ID). The node skip is
// excluded (pass a negative skip to keep every node), as are entries with
// non-positive score, so fewer than k entries may be returned.
func SelectTop(scores []float64, k int, skip graph.NodeID) []TopEntry {
	return SelectTopRange(scores, k, skip, 0, len(scores))
}

// SelectTopRange is SelectTop restricted to the nodes in [lo, hi).
func SelectTopRange(scores []float64, k int, skip graph.NodeID, lo, hi int) []TopEntry {
	if k <= 0 || lo >= hi {
		return nil
	}
	h := make([]TopEntry, 0, min(k, hi-lo))
	for v := lo; v < hi; v++ {
		sc := scores[v]
		if sc <= 0 || graph.NodeID(v) == skip {
			continue
		}
		h = pushTop(h, k, TopEntry{Node: graph.NodeID(v), Score: sc})
	}
	return bestFirst(h)
}

// selectHits is SelectTopRange over the listed nodes of scores only; it
// returns exactly what SelectTopRange would whenever scores is zero off
// hits and hits has no duplicates.
func selectHits(scores []float64, hits []int32, k int, skip graph.NodeID, lo, hi int) []TopEntry {
	if k <= 0 || lo >= hi {
		return nil
	}
	h := make([]TopEntry, 0, min(k, len(hits)))
	for _, v := range hits {
		sc := scores[v]
		if int(v) < lo || int(v) >= hi || sc <= 0 || v == skip {
			continue
		}
		h = pushTop(h, k, TopEntry{Node: v, Score: sc})
	}
	return bestFirst(h)
}

// pushTop offers e to h, a min-heap (root = worst kept entry) of at most
// k entries, and returns the updated heap.
func pushTop(h []TopEntry, k int, e TopEntry) []TopEntry {
	if len(h) < k {
		h = append(h, e)
		siftUp(h, len(h)-1)
	} else if h[0].WorseThan(e) {
		h[0] = e
		siftDown(h, 0)
	}
	return h
}

// bestFirst sorts a selection heap, kept worst first, into the
// best-first order responses use. The order is total over distinct
// nodes, so the result does not depend on the order entries were pushed.
func bestFirst(h []TopEntry) []TopEntry {
	slices.SortFunc(h, func(a, b TopEntry) int {
		switch {
		case b.WorseThan(a):
			return -1
		case a.WorseThan(b):
			return 1
		}
		return 0
	})
	return h
}

// siftUp restores min-heap order (root = worst kept entry) after
// appending at position i.
func siftUp(h []TopEntry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].WorseThan(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores min-heap order after replacing the root.
func siftDown(h []TopEntry, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].WorseThan(h[m]) {
			m = l
		}
		if r < n && h[r].WorseThan(h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
