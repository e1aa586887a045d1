package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"sling/internal/graph"
)

// BuildStats reports work done during preprocessing.
type BuildStats struct {
	WalkPairs   int64 // √c-walk pairs drawn for correction factors
	BoundPushes int64 // pushes of the walk-meeting bound tried before sampling
	HPPushes    int64 // local-update pushes of Algorithm 2
	Entries     int   // HP entries kept before space reduction
	Dropped     int   // entries removed by the Section 5.2 reduction
}

// Build constructs a SLING index over g. See Options for knobs; the zero
// options reproduce the paper's experimental configuration.
func Build(g *graph.Graph, o *Options) (*Index, error) {
	x, _, err := BuildWithStats(g, o)
	return x, err
}

// BuildWithStats is Build plus preprocessing statistics.
func BuildWithStats(g *graph.Graph, o *Options) (*Index, BuildStats, error) {
	var st BuildStats
	prm, err := o.resolve(g.NumNodes())
	if err != nil {
		return nil, st, err
	}
	n := g.NumNodes()
	x := &Index{g: g, prm: prm, d: make([]float64, n), reduced: make([]bool, n)}
	if n == 0 {
		x.off = make([]int64, 1)
		x.markOff = make([]int64, 1)
		return x, st, nil
	}

	// Phase 1: estimate every d̃_k (the walk-meeting bound, then
	// Algorithm 1 or 4 where it does not certify).
	st.WalkPairs, st.BoundPushes = estimateAllD(g, prm, x.d)

	// Phase 2: the local-update pass of Algorithm 2 for every target k,
	// parallel over k (Section 5.4). ForEach hands out one k at a time,
	// so a worker that finishes cheap targets claims the next one instead
	// of idling; each worker appends to its own output.
	type hpWorker struct {
		scratch *hpScratch
		out     []hpEntry
		pushes  int64
	}
	var (
		mu   sync.Mutex
		outs []*hpWorker
	)
	newWorker := func() *hpWorker {
		w := &hpWorker{scratch: newHPScratch(n)}
		mu.Lock()
		outs = append(outs, w)
		mu.Unlock()
		return w
	}
	// fn never fails and the context is never cancelled, so neither can
	// ForEach.
	_ = ForEach(context.TODO(), n, prm.workers, newWorker, func(k int, w *hpWorker) error {
		var pushes int64
		w.out, pushes = hpPass(g, graph.NodeID(k), prm.sqrtC, prm.theta, w.scratch, w.out)
		w.pushes += pushes
		return nil
	})
	for _, w := range outs {
		st.HPPushes += w.pushes
		st.Entries += len(w.out)
	}

	// Phase 3: decide space reduction per node (Section 5.2) before
	// assembling the CSR, so dropped entries are never materialized.
	if prm.spaceReduction {
		cap := prm.gamma / prm.theta
		for v := int32(0); int(v) < n; v++ {
			if float64(twoHopVolume(g, v)) <= cap {
				x.reduced[v] = true
			}
		}
	}

	// Phase 4: assemble the per-node CSR by a counting scatter over the
	// worker outputs, packing each key to 32 bits and rounding each value
	// to float32 as it lands, then sort each node's entries by (step,
	// target) key. Which worker produced an entry, and so the order the
	// scatter sees it in, depends on scheduling; a node's keys are unique
	// (step, target) pairs, so the sort alone fixes the final layout.
	keep := func(e hpEntry) bool {
		if !x.reduced[e.x] {
			return true
		}
		l := keyStep(e.key)
		return l < 1 || l > 2
	}
	counts := make([]int64, n+1)
	total := 0
	for _, w := range outs {
		for _, e := range w.out {
			if keep(e) {
				counts[e.x+1]++
				total++
			}
		}
	}
	st.Dropped = st.Entries - total
	x.off = counts
	for v := 0; v < n; v++ {
		x.off[v+1] += x.off[v]
	}
	x.keys = make([]uint32, total)
	x.vals = make([]float32, total)
	cursor := make([]int64, n)
	copy(cursor, x.off[:n])
	for _, w := range outs {
		for _, e := range w.out {
			if keep(e) {
				c := cursor[e.x]
				x.keys[c] = packKey(e.key, prm.nodeBits)
				x.vals[c] = float32(e.val)
				cursor[e.x]++
			}
		}
		// Drop the scattered worker output so it can be collected before
		// sorting, which would otherwise double peak build memory.
		w.out = nil
	}
	for v := 0; v < n; v++ {
		sortEntries(x.keys[x.off[v]:x.off[v+1]], x.vals[x.off[v]:x.off[v+1]])
	}

	// Phase 5: enhancement marks (Section 5.3).
	if prm.enhance {
		x.buildMarks()
	} else {
		x.markOff = make([]int64, n+1)
	}
	return x, st, nil
}

// twoHopVolume returns η(v) = |I(v)| + Σ_{x∈I(v)} |I(x)|, the cost of
// recomputing v's step-1/2 HPs exactly with Algorithm 5.
func twoHopVolume(g *graph.Graph, v graph.NodeID) int64 {
	ins := g.InNeighbors(v)
	vol := int64(len(ins))
	for _, u := range ins {
		vol += int64(g.InDegree(u))
	}
	return vol
}

// sortEntries sorts keys and vals in lockstep by key, with an in-place
// heapsort rather than sort.Sort: boxing a two-slice sorter into
// sort.Interface heap-allocates on every call, and sortEntries sits on
// the query path (expandMarks), where the mapped disk mode promises
// allocation-free queries. It sorts stored (packed) entries at build
// time and query-width entries at query time. Keys within one node's
// H(v) are unique (step, node) pairs except for the pre-fold additions
// in expandMarks, so stability is not relied on.
func sortEntries[K uint32 | uint64, V float32 | float64](keys []K, vals []V) {
	n := len(keys)
	for root := n/2 - 1; root >= 0; root-- {
		siftEntries(keys, vals, root, n)
	}
	for end := n - 1; end > 0; end-- {
		keys[0], keys[end] = keys[end], keys[0]
		vals[0], vals[end] = vals[end], vals[0]
		siftEntries(keys, vals, 0, end)
	}
}

func siftEntries[K uint32 | uint64, V float32 | float64](keys []K, vals []V, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && keys[child+1] > keys[child] {
			child++
		}
		if keys[root] >= keys[child] {
			return
		}
		keys[root], keys[child] = keys[child], keys[root]
		vals[root], vals[child] = vals[child], vals[root]
		root = child
	}
}

// buildMarks implements the Section 5.3 build-time step: for each node,
// among stored entries whose target has in-degree at most 1/√ε, mark the
// ⌈1/√ε⌉ largest for query-time expansion.
func (x *Index) buildMarks() {
	n := len(x.d)
	limit := int(math.Ceil(1 / math.Sqrt(x.prm.eps)))
	degCap := int(math.Floor(1 / math.Sqrt(x.prm.eps)))
	x.markOff = make([]int64, n+1)
	var all []int32
	type cand struct {
		pos int32
		val float32
	}
	var cands []cand
	mask := uint32(1)<<x.prm.nodeBits - 1
	for v := 0; v < n; v++ {
		lo, hi := x.off[v], x.off[v+1]
		cands = cands[:0]
		for p := lo; p < hi; p++ {
			target := int32(x.keys[p] & mask)
			if x.g.InDegree(target) <= degCap && x.g.InDegree(target) > 0 {
				cands = append(cands, cand{pos: int32(p - lo), val: x.vals[p]})
			}
		}
		if len(cands) > limit {
			sort.Slice(cands, func(i, j int) bool { return cands[i].val > cands[j].val })
			cands = cands[:limit]
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].pos < cands[j].pos })
		for _, c := range cands {
			all = append(all, c.pos)
		}
		x.markOff[v+1] = int64(len(all))
	}
	x.marks = all
}

// String summarizes the index.
func (x *Index) String() string {
	return fmt.Sprintf("sling.Index{n=%d entries=%d eps=%g theta=%g}",
		len(x.d), len(x.keys), x.prm.eps, x.prm.theta)
}
