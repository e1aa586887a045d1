package core

import (
	"context"
	"sync"

	"sling/internal/graph"
)

// The serving engine.
//
// The paper's disk-resident mode (Section 5.4) changes only where a
// node's H(v) comes from; Algorithms 3, 5 and 6 run unchanged on the
// fetched entries. So every served query family — single-pair,
// single-source, top-k and source-top, fragment, and batch — is composed
// once here, in ScratchPool, over an entry source: the in-memory index's
// own arrays, the zero-copy views of a mapped file, or two positioned
// reads. Disk answers are therefore bitwise-identical to memory
// answers, and ReadAt I/O errors are the only errors a query can return.

// entrySource fetches node v's stored HP entries, widened to query
// width (Index.widen) into the scratch buffers of slot (0 or 1), so the
// two endpoints of a pair stay live at once. The result is read-only.
type entrySource interface {
	entries(v graph.NodeID, s *Scratch, slot int) ([]uint64, []float64, error)
}

// entries implements entrySource over the resident columns; it never
// fails.
func (x *Index) entries(v graph.NodeID, s *Scratch, slot int) ([]uint64, []float64, error) {
	lo, hi := x.off[v], x.off[v+1]
	keys, vals := x.widen(x.keys[lo:hi], x.vals[lo:hi], s, slot)
	return keys, vals, nil
}

// gatherAt gathers node v's effective HP set (gatherFrom) from the
// entries src fetches into slot: the one fetch site of every query.
func (x *Index) gatherAt(src entrySource, v graph.NodeID, s *Scratch, slot int) ([]uint64, []float64, error) {
	stored, storedVals, err := src.entries(v, s, slot)
	if err != nil {
		return nil, nil, err
	}
	keys, vals := x.gatherFrom(v, stored, storedVals, s, slot)
	return keys, vals, nil
}

// ScratchPool is the serving engine of an in-memory or disk-resident
// index: it answers every query family over the index's entry source
// with per-goroutine query buffers (Scratch, SourceScratch, n-length
// score vectors) from sync.Pools, so a serving layer can run queries at
// arbitrary concurrency without allocating scratch per call and without
// any global lock. All buffers are sized for the pool's index; a buffer
// returned with Put may be handed to any later Get on any goroutine.
type ScratchPool struct {
	x       *Index // graph, parameters, d̃, and offsets
	src     entrySource
	scratch sync.Pool // *Scratch
	source  sync.Pool // *SourceScratch
	vec     sync.Pool // *[]float64, len = NumNodes
}

func newScratchPool(x *Index, src entrySource) *ScratchPool {
	p := &ScratchPool{x: x, src: src}
	p.scratch.New = func() interface{} { return x.NewScratch() }
	p.source.New = func() interface{} { return x.NewSourceScratch() }
	p.vec.New = func() interface{} {
		v := make([]float64, x.g.NumNodes())
		return &v
	}
	return p
}

// NewScratchPool returns the serving engine over the index's resident
// entries.
func (x *Index) NewScratchPool() *ScratchPool { return newScratchPool(x, x) }

// NewScratchPool returns the serving engine over the disk index's
// entries: mapped views, or positioned reads.
func (d *DiskIndex) NewScratchPool() *ScratchPool { return newScratchPool(d.meta, d) }

// Scratch gets a single-pair scratch; return it with PutScratch.
func (p *ScratchPool) Scratch() *Scratch { return p.scratch.Get().(*Scratch) }

// PutScratch returns a scratch obtained from Scratch.
func (p *ScratchPool) PutScratch(s *Scratch) { p.scratch.Put(s) }

// Source gets a single-source scratch; return it with PutSource.
func (p *ScratchPool) Source() *SourceScratch { return p.source.Get().(*SourceScratch) }

// PutSource returns a scratch obtained from Source.
func (p *ScratchPool) PutSource(s *SourceScratch) { p.source.Put(s) }

// Vector gets a NumNodes-length float64 buffer (contents unspecified;
// SingleSource zeroes what it writes into). Return it with PutVector.
// The buffer travels by pointer so the round trip does not allocate.
func (p *ScratchPool) Vector() *[]float64 { return p.vec.Get().(*[]float64) }

// PutVector returns a buffer obtained from Vector.
func (p *ScratchPool) PutVector(v *[]float64) { p.vec.Put(v) }

// SimRank answers a single-pair query (Algorithm 3) with pooled scratch.
func (p *ScratchPool) SimRank(u, v graph.NodeID) (float64, error) {
	s := p.Scratch()
	score, err := p.simRank(u, v, s)
	p.PutScratch(s)
	return score, err
}

func (p *ScratchPool) simRank(u, v graph.NodeID, s *Scratch) (float64, error) {
	ku, vu, err := p.x.gatherAt(p.src, u, s, 0)
	if err != nil {
		return 0, err
	}
	kv, vv, err := p.x.gatherAt(p.src, v, s, 1)
	if err != nil {
		return 0, err
	}
	return joinScore(ku, vu, kv, vv, p.x.d), nil
}

// SingleSource answers a single-source query (Algorithm 6) with pooled
// scratch, writing into out when it has capacity.
func (p *ScratchPool) SingleSource(u graph.NodeID, out []float64) ([]float64, error) {
	s := p.Source()
	out, err := p.singleSource(u, s, out)
	p.PutSource(s)
	return out, err
}

func (p *ScratchPool) singleSource(u graph.NodeID, s *SourceScratch, out []float64) ([]float64, error) {
	keys, vals, err := p.x.gatherAt(p.src, u, s.q, 0)
	if err != nil {
		return nil, err
	}
	return p.x.SingleSourceFrom(keys, vals, s, out), nil
}

// TopK returns the k nodes most similar to u (excluding u itself) in
// descending score order, ties broken by ascending node ID, from one
// fetch, one propagation, and a heap selection over the touched nodes.
// Only the result is allocated.
func (p *ScratchPool) TopK(u graph.NodeID, k int) ([]TopEntry, error) {
	return p.top(u, k, u)
}

// SourceTop returns the limit highest-scoring nodes of a single-source
// query from u (u itself included, unlike TopK), in the same order.
func (p *ScratchPool) SourceTop(u graph.NodeID, limit int) ([]TopEntry, error) {
	return p.top(u, limit, -1)
}

func (p *ScratchPool) top(u graph.NodeID, k int, skip graph.NodeID) ([]TopEntry, error) {
	if k <= 0 {
		return nil, nil
	}
	s := p.Source()
	keys, vals, err := p.x.gatherAt(p.src, u, s.q, 0)
	var top []TopEntry
	if err == nil {
		top = p.x.topFrom(keys, vals, k, skip, 0, p.x.g.NumNodes(), s)
	}
	p.PutSource(s)
	return top, err
}

// SingleSourceNaive answers a single-source query by running the
// Algorithm 3 single-pair join once per node — the O(n/ε) straightforward
// method the paper compares Algorithm 6 against in Figure 2 — writing
// into out when it has capacity.
func (p *ScratchPool) SingleSourceNaive(u graph.NodeID, out []float64) ([]float64, error) {
	n := p.x.g.NumNodes()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	s := p.Scratch()
	defer p.PutScratch(s)
	ku, vu, err := p.x.gatherAt(p.src, u, s, 0)
	if err != nil {
		return nil, err
	}
	// Gathering v below uses only the second slot, so u's entries in
	// the first stay valid.
	for v := 0; v < n; v++ {
		kv, vv, err := p.x.gatherAt(p.src, graph.NodeID(v), s, 1)
		if err != nil {
			return nil, err
		}
		out[v] = joinScore(ku, vu, kv, vv, p.x.d)
	}
	return out, nil
}

// SingleSourceBatch answers one single-source query per source in us,
// fanned across workers goroutines (the build's Options.Workers when
// workers <= 0) with per-worker scratch. Row i equals
// SingleSource(us[i], nil) exactly, at any worker count. The first error
// aborts the batch, and a cancelled ctx (nil means never) stops the
// fan-out between sources.
func (p *ScratchPool) SingleSourceBatch(ctx context.Context, us []graph.NodeID, workers int) ([][]float64, error) {
	if workers <= 0 {
		workers = p.x.prm.workers
	}
	n := p.x.g.NumNodes()
	out := make([][]float64, len(us))
	if err := ForEach(ctx, len(us), workers, p.x.NewSourceScratch, func(i int, s *SourceScratch) error {
		row, err := p.singleSource(us[i], s, make([]float64, n))
		out[i] = row
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}
