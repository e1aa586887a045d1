package core

import (
	"sync"

	"sling/internal/graph"
)

// ScratchPool hands out the per-goroutine query buffers (Scratch,
// SourceScratch, n-length score vectors) from sync.Pools, so a serving
// layer can run queries at arbitrary concurrency without allocating
// scratch per call. All buffers are sized for the pool's index; a buffer
// returned with Put may be handed to any later Get on any goroutine.
//
// The pool only manages buffer lifetime — queries through it are exactly
// as deterministic as the underlying Index methods.
type ScratchPool struct {
	x       *Index
	scratch sync.Pool // *Scratch
	source  sync.Pool // *SourceScratch
	vec     sync.Pool // *[]float64, len = NumNodes
}

// NewScratchPool returns a pool of query scratch for the index.
func (x *Index) NewScratchPool() *ScratchPool {
	p := &ScratchPool{x: x}
	p.scratch.New = func() interface{} { return x.NewScratch() }
	p.source.New = func() interface{} { return x.NewSourceScratch() }
	p.vec.New = func() interface{} {
		v := make([]float64, x.g.NumNodes())
		return &v
	}
	return p
}

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

// SimRank is Index.SimRank with pooled scratch.
func (p *ScratchPool) SimRank(u, v graph.NodeID) float64 {
	s := p.Scratch()
	score := p.x.SimRank(u, v, s)
	p.PutScratch(s)
	return score
}

// SingleSource is Index.SingleSource with pooled scratch, writing into
// out when it has capacity.
func (p *ScratchPool) SingleSource(u graph.NodeID, out []float64) []float64 {
	s := p.Source()
	res := p.x.SingleSource(u, s, out)
	p.PutSource(s)
	return res
}

// TopK is Index.TopK with pooled scratch; only the result is allocated.
func (p *ScratchPool) TopK(u graph.NodeID, k int) []TopEntry {
	if k <= 0 {
		return nil
	}
	s := p.Source()
	top := p.x.TopK(u, k, s)
	p.PutSource(s)
	return top
}

// SourceTop returns the limit highest-scoring nodes of a pooled
// single-source query from u (u itself included, unlike TopK), in
// descending score order with ties broken by ascending node ID.
func (p *ScratchPool) SourceTop(u graph.NodeID, limit int) []TopEntry {
	if limit <= 0 {
		return nil
	}
	s := p.Source()
	top := p.x.sourceTop(u, limit, -1, s)
	p.PutSource(s)
	return top
}
