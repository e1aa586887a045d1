package core

import (
	"context"
	"sync"
	"sync/atomic"

	"sling/internal/graph"
)

// Concurrent serving over the disk-resident index (Section 5.4).
//
// os.File.ReadAt is goroutine-safe, so DiskIndex queries need no global
// lock — only per-goroutine scratch, which DiskScratchPool hands out
// from sync.Pools exactly like ScratchPool does for the in-memory index.
// The higher-level shapes the serving layer needs (top-k, source-top,
// batched single-source) are built here from the same primitives as the
// in-memory ones, so disk answers are byte-identical to memory answers.

// TopK returns the k nodes most similar to u (excluding u itself) in
// descending score order, from one disk fetch, the in-memory gather and
// propagation, and a heap selection over the touched nodes. Nil scratches
// allocate.
func (d *DiskIndex) TopK(u graph.NodeID, k int, s *DiskScratch, ss *SourceScratch) ([]TopEntry, error) {
	return d.sourceTop(u, k, u, s, ss)
}

// SourceTop returns the limit highest-scoring nodes for source u (u
// itself included, unlike TopK) in descending score order, ties broken
// by ascending node ID.
func (d *DiskIndex) SourceTop(u graph.NodeID, limit int, s *DiskScratch, ss *SourceScratch) ([]TopEntry, error) {
	return d.sourceTop(u, limit, -1, s, ss)
}

func (d *DiskIndex) sourceTop(u graph.NodeID, k int, skip graph.NodeID, s *DiskScratch, ss *SourceScratch) ([]TopEntry, error) {
	if k <= 0 {
		return nil, nil
	}
	if s == nil {
		s = d.NewScratch()
	}
	if ss == nil {
		ss = d.meta.NewSourceScratch()
	}
	keys, vals, err := d.gather(u, s)
	if err != nil {
		return nil, err
	}
	return d.meta.topFrom(keys, vals, k, skip, 0, d.meta.g.NumNodes(), ss), nil
}

// SingleSourceBatch answers one single-source query per source in us,
// fanned across workers goroutines (GOMAXPROCS-style caller default:
// workers <= 0 means 1) with per-worker scratch, mirroring the in-memory
// Index.SingleSourceBatch. Row i equals SingleSource(us[i], ...) exactly
// at any worker count. The first I/O error aborts the batch, and a
// cancelled ctx (nil means never) stops the fan-out between sources.
func (d *DiskIndex) SingleSourceBatch(ctx context.Context, us []graph.NodeID, workers int) ([][]float64, error) {
	n := d.meta.g.NumNodes()
	out := make([][]float64, len(us))
	if workers <= 0 {
		workers = 1
	}
	if workers > len(us) {
		workers = len(us)
	}
	if workers <= 1 {
		s := d.NewScratch()
		ss := d.meta.NewSourceScratch()
		for i, u := range us {
			if err := CtxErr(ctx); err != nil {
				return nil, err
			}
			row, err := d.SingleSource(u, s, ss, make([]float64, n))
			if err != nil {
				return nil, err
			}
			out[i] = row
		}
		return out, nil
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.NewScratch()
			ss := d.meta.NewSourceScratch()
			for {
				// Claim before checking ctx: a worker that finds the work
				// list exhausted returns cleanly, so a ctx cancelled after
				// the last source cannot turn a fully-computed batch into
				// an error.
				i := int(next.Add(1)) - 1
				if i >= len(us) || firstErr.Load() != nil {
					return
				}
				// Error values are copied before their address is taken so
				// the happy path never heap-allocates an error variable.
				if err := CtxErr(ctx); err != nil {
					e := err
					firstErr.CompareAndSwap(nil, &e)
					return
				}
				row, err := d.SingleSource(us[i], s, ss, make([]float64, n))
				if err != nil {
					e := err
					firstErr.CompareAndSwap(nil, &e)
					return
				}
				out[i] = row
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	return out, nil
}

// DiskScratchPool hands out per-goroutine DiskIndex query buffers from
// sync.Pools, the disk counterpart of ScratchPool: a serving layer can
// run disk queries at arbitrary concurrency without allocating scratch
// per call and without any global lock.
type DiskScratchPool struct {
	d       *DiskIndex
	scratch sync.Pool // *DiskScratch
	source  sync.Pool // *SourceScratch
}

// NewScratchPool returns a pool of query scratch for the disk index.
func (d *DiskIndex) NewScratchPool() *DiskScratchPool {
	p := &DiskScratchPool{d: d}
	p.scratch.New = func() interface{} { return d.NewScratch() }
	p.source.New = func() interface{} { return d.meta.NewSourceScratch() }
	return p
}

// SimRank is DiskIndex.SimRank with pooled scratch.
func (p *DiskScratchPool) SimRank(u, v graph.NodeID) (float64, error) {
	s := p.scratch.Get().(*DiskScratch)
	score, err := p.d.SimRank(u, v, s)
	p.scratch.Put(s)
	return score, err
}

// SingleSource is DiskIndex.SingleSource with pooled scratch, writing
// into out when it has capacity.
func (p *DiskScratchPool) SingleSource(u graph.NodeID, out []float64) ([]float64, error) {
	s := p.scratch.Get().(*DiskScratch)
	ss := p.source.Get().(*SourceScratch)
	res, err := p.d.SingleSource(u, s, ss, out)
	p.source.Put(ss)
	p.scratch.Put(s)
	return res, err
}

// TopK is DiskIndex.TopK with pooled scratch; only the result is
// allocated.
func (p *DiskScratchPool) TopK(u graph.NodeID, k int) ([]TopEntry, error) {
	if k <= 0 {
		return nil, nil
	}
	s := p.scratch.Get().(*DiskScratch)
	ss := p.source.Get().(*SourceScratch)
	top, err := p.d.TopK(u, k, s, ss)
	p.source.Put(ss)
	p.scratch.Put(s)
	return top, err
}

// SourceTop is DiskIndex.SourceTop with pooled scratch.
func (p *DiskScratchPool) SourceTop(u graph.NodeID, limit int) ([]TopEntry, error) {
	if limit <= 0 {
		return nil, nil
	}
	s := p.scratch.Get().(*DiskScratch)
	ss := p.source.Get().(*SourceScratch)
	top, err := p.d.SourceTop(u, limit, s, ss)
	p.source.Put(ss)
	p.scratch.Put(s)
	return top, err
}
