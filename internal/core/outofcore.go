package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"sling/internal/extsort"
	"sling/internal/graph"
)

// Out-of-core index construction (Section 5.4 of the paper).
//
// Only the O(n) correction factors stay memory-resident during the build;
// every HP entry produced by the per-target local-update pass streams into
// a bounded-memory external sorter keyed by (owner node, step, target).
// The sorted stream is, by construction, the final index layout, so
// assembly is a single sequential pass. Total extra I/O is
// O((n/ε)·log(n/ε)), and the memory high-water mark is the sorter's
// budget plus O(n).

// OutOfCoreOptions configures BuildOutOfCore.
type OutOfCoreOptions struct {
	// Dir is the spill directory for external-sort runs. Required.
	Dir string
	// MemBudget bounds the sorter's in-memory buffer, in bytes
	// (the Figure 10 experiment's x-axis). Minimum extsort.MinMemBudget.
	MemBudget int64
}

// BuildOutOfCore constructs the same index as Build, bit for bit, while
// keeping HP entries out of memory until final assembly. It shares
// Build's d̃ pass, which honors o.Workers; the HP pass is sequential over
// target nodes, feeding one external sorter (runs are written "in turn",
// as the paper describes).
func BuildOutOfCore(g *graph.Graph, o *Options, oo OutOfCoreOptions) (*Index, error) {
	prm, err := o.resolve(g.NumNodes())
	if err != nil {
		return nil, err
	}
	if oo.Dir == "" {
		return nil, fmt.Errorf("core: out-of-core build needs a spill directory")
	}
	n := g.NumNodes()
	x := &Index{g: g, prm: prm, d: make([]float64, n), reduced: make([]bool, n)}
	if n == 0 {
		x.off = make([]int64, 1)
		x.markOff = make([]int64, 1)
		return x, nil
	}

	// Correction factors (memory-resident per Section 5.4).
	estimateAllD(g, prm, x.d)

	// Space-reduction decisions, needed to filter entries before they are
	// spilled.
	if prm.spaceReduction {
		volCap := prm.gamma / prm.theta
		for v := int32(0); int(v) < n; v++ {
			if float64(twoHopVolume(g, v)) <= volCap {
				x.reduced[v] = true
			}
		}
	}

	sorter, err := extsort.New(oo.Dir, oo.MemBudget)
	if err != nil {
		return nil, err
	}
	scratch := newHPScratch(n)
	var pass []hpEntry
	for k := 0; k < n; k++ {
		pass, _ = hpPass(g, graph.NodeID(k), prm.sqrtC, prm.theta, scratch, pass[:0])
		for _, e := range pass {
			if x.reduced[e.x] {
				if l := keyStep(e.key); l == 1 || l == 2 {
					continue
				}
			}
			if err := sorter.Add(extsort.Record{Node: e.x, Key: e.key, Val: e.val}); err != nil {
				return nil, err
			}
		}
	}
	it, err := sorter.Sort()
	if err != nil {
		return nil, err
	}
	defer it.Close()

	// The sorted stream arrives in final CSR order; append directly,
	// packing and rounding exactly as Build's CSR assembly does.
	x.off = make([]int64, n+1)
	prev := int32(-1)
	for {
		rec, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if rec.Node < prev {
			return nil, fmt.Errorf("core: external sort returned node %d after %d", rec.Node, prev)
		}
		for prev < rec.Node {
			prev++
			x.off[prev] = int64(len(x.keys))
		}
		x.keys = append(x.keys, packKey(rec.Key, prm.nodeBits))
		x.vals = append(x.vals, float32(rec.Val))
	}
	for v := int(prev) + 1; v <= n; v++ {
		x.off[v] = int64(len(x.keys))
	}

	if prm.enhance {
		x.buildMarks()
	} else {
		x.markOff = make([]int64, n+1)
	}
	return x, nil
}

// estimateAllD fills d with d̃_k for every node k (Algorithm 1 or 4
// behind the walk-meeting bound) and returns the √c-walk pairs drawn and
// the bound's pushes. It is phase 1 of both Build and BuildOutOfCore:
// parallel over k through ForEach, which hands out one k at a time, so
// the costly nodes, which cluster at low IDs on a power-law graph, do not
// leave a worker idle; each worker keeps one dScratch. The bound is
// deterministic and sampling for node k is seeded by (Seed, k) alone, so
// d is identical at any worker count.
func estimateAllD(g *graph.Graph, prm resolved, d []float64) (pairs, pushes int64) {
	var nPairs, nPushes atomic.Int64
	n := g.NumNodes()
	newScratch := func() *dScratch { return newDScratch(n) }
	// fn never fails and the context is never cancelled, so neither can
	// ForEach.
	_ = ForEach(context.TODO(), n, prm.workers, newScratch, func(k int, s *dScratch) error {
		dk, p, q := estimateD(g, graph.NodeID(k), prm, s)
		d[k] = dk
		nPairs.Add(int64(p))
		nPushes.Add(int64(q))
		return nil
	})
	return nPairs.Load(), nPushes.Load()
}
