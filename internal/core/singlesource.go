package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"sling/internal/graph"
	"sling/internal/power"
)

// Single-source queries (Section 6 of the paper).
//
// Algorithm 6 avoids touching every node's H(v): for each step ℓ present
// in H(u) it seeds temporary scores ρ^(0)(k) = h̃^(ℓ)(u,k)·d̃_k and
// propagates them ℓ steps forward along out-edges (the same local-update
// rule as Algorithm 2, with the pruning threshold scaled down to
// (√c)^ℓ·θ because the seeds start at (√c)^ℓ rather than 1). After ℓ
// steps, ρ^(ℓ)(j) is the step-ℓ slice of Equation (13) for every j at
// once. Total cost O(m·log²(1/ε)) with ε worst-case error (Lemma 12).

// SourceScratch holds the per-query buffers of single-source queries.
type SourceScratch struct {
	q                 *Scratch
	cur, next         []float64
	curList, nextList []int32

	// acc is the sparse accumulator of the top-k and slice paths. hits
	// lists each node whose score went from 0 to nonzero during a
	// propagation, so it has no duplicates and the accumulator is zero
	// off it. acc is all-zero and hits empty between calls.
	acc  []float64
	hits []int32
}

// NewSourceScratch sizes a SourceScratch for the index's graph.
func (x *Index) NewSourceScratch() *SourceScratch {
	n := x.g.NumNodes()
	return &SourceScratch{
		q:    x.NewScratch(),
		cur:  make([]float64, n),
		next: make([]float64, n),
		acc:  make([]float64, n),
	}
}

// SingleSource computes s̃(u, v) for every node v with Algorithm 6,
// writing into out if it has capacity n and allocating otherwise.
// A nil scratch allocates one.
func (x *Index) SingleSource(u graph.NodeID, s *SourceScratch, out []float64) []float64 {
	if s == nil {
		s = x.NewSourceScratch()
	}
	keys, vals := x.gather(u, s.q, &s.q.gk[0], &s.q.gv[0])
	return x.SingleSourceFrom(keys, vals, s, out)
}

// SingleSourceFrom runs the Algorithm 6 propagation from an already
// gathered HP entry list instead of a node: the seeds are h values
// (pre-correction; d̃ is applied here), sorted by key. It is the dense
// form of the one propagation behind the in-memory and disk
// single-source, top-k and shard paths: propagation needs only the
// graph, d̃, and the parameters, all of which every shard holds in full,
// so a shard can propagate any node's fragment exactly.
func (x *Index) SingleSourceFrom(keys []uint64, vals []float64, s *SourceScratch, out []float64) []float64 {
	if s == nil {
		s = x.NewSourceScratch()
	}
	n := x.g.NumNodes()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	clear(out)
	x.propagate(keys, vals, s, out)
	s.hits = s.hits[:0]
	return out
}

// sliceFrom is SingleSourceFrom restricted to the nodes in [lo, hi),
// returned as a fresh hi-lo vector: the owner shard's side of a sharded
// single-source query.
func (x *Index) sliceFrom(keys []uint64, vals []float64, lo, hi int, s *SourceScratch) []float64 {
	out := make([]float64, hi-lo)
	x.propagate(keys, vals, s, s.acc)
	s.drain(out, lo)
	return out
}

// topFrom propagates a gathered entry list and selects the k best nodes
// of [lo, hi) other than skip, visiting only the nodes the propagation
// touched: O(nnz log k) with no O(n) scan or clear.
func (x *Index) topFrom(keys []uint64, vals []float64, k int, skip graph.NodeID, lo, hi int, s *SourceScratch) []TopEntry {
	if k <= 0 || lo >= hi {
		return nil
	}
	x.propagate(keys, vals, s, s.acc)
	top := selectHits(s.acc, s.hits, k, skip, lo, hi)
	s.drain(nil, 0)
	return top
}

// sourceTop gathers u's entries and runs topFrom over the whole graph.
func (x *Index) sourceTop(u graph.NodeID, k int, skip graph.NodeID, s *SourceScratch) []TopEntry {
	if k <= 0 {
		return nil
	}
	if s == nil {
		s = x.NewSourceScratch()
	}
	keys, vals := x.gather(u, s.q, &s.q.gk[0], &s.q.gv[0])
	return x.topFrom(keys, vals, k, skip, 0, x.g.NumNodes(), s)
}

// propagate adds the Algorithm 6 scores of a gathered entry list into
// acc, which must be all-zero, and lists the nodes it makes nonzero in
// s.hits. Entries are sorted by (step, node), so it processes one
// step-group at a time. The caller empties s.hits (and s.acc, with
// drain, when that is the accumulator).
func (x *Index) propagate(keys []uint64, vals []float64, s *SourceScratch, acc []float64) {
	for lo := 0; lo < len(keys); {
		l := keyStep(keys[lo])
		hi := lo
		for hi < len(keys) && keyStep(keys[hi]) == l {
			hi++
		}
		x.propagateStep(keys[lo:hi], vals[lo:hi], l, s, acc)
		lo = hi
	}
}

// drain copies the accumulated score of every hit v in [lo, lo+len(out))
// to out[v-lo] and zeroes s.acc at the hits, leaving s ready for the
// next propagation.
func (s *SourceScratch) drain(out []float64, lo int) {
	for _, v := range s.hits {
		if i := int(v) - lo; i >= 0 && i < len(out) {
			out[i] = s.acc[v]
		}
		s.acc[v] = 0
	}
	s.hits = s.hits[:0]
}

// propagateStep seeds ρ^(0)(k) = h̃^(ℓ)(u,k)·d̃_k for one step group and
// runs ℓ local-update steps, accumulating ρ^(ℓ) into acc.
func (x *Index) propagateStep(keys []uint64, vals []float64, l int, s *SourceScratch, acc []float64) {
	s.curList = s.curList[:0]
	for i, key := range keys {
		k := keyNode(key)
		if s.cur[k] == 0 {
			s.curList = append(s.curList, k)
		}
		s.cur[k] += vals[i] * x.d[k]
	}
	threshold := math.Pow(x.prm.sqrtC, float64(l)) * x.prm.theta
	for t := 0; t < l; t++ {
		s.nextList = s.nextList[:0]
		for _, v := range s.curList {
			rho := s.cur[v]
			s.cur[v] = 0
			if rho <= threshold {
				continue
			}
			for _, y := range x.g.OutNeighbors(v) {
				add := x.prm.sqrtC * rho / float64(x.g.InDegree(y))
				if s.next[y] == 0 {
					s.nextList = append(s.nextList, y)
				}
				s.next[y] += add
			}
		}
		s.cur, s.next = s.next, s.cur
		s.curList, s.nextList = s.nextList, s.curList
	}
	for _, v := range s.curList {
		if acc[v] == 0 && s.cur[v] != 0 {
			s.hits = append(s.hits, v)
		}
		acc[v] += s.cur[v]
		s.cur[v] = 0
	}
}

// SingleSourceNaive answers a single-source query by running the
// Algorithm 3 single-pair join once per node — the O(n/ε) straightforward
// method the paper compares Algorithm 6 against in Figure 2.
func (x *Index) SingleSourceNaive(u graph.NodeID, s *Scratch, out []float64) []float64 {
	if s == nil {
		s = x.NewScratch()
	}
	n := x.g.NumNodes()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	ku, vu := x.gather(u, s, &s.gk[0], &s.gv[0])
	// gather(u) may alias index storage; gathering v below can reuse only
	// the second buffer pair so u's view stays valid.
	for v := 0; v < n; v++ {
		kv, vv := x.gather(graph.NodeID(v), s, &s.gk[1], &s.gv[1])
		out[v] = joinScore(ku, vu, kv, vv, x.d)
	}
	return out
}

// CtxErr reports a cancelled or expired context, tolerating nil
// (treated as context.Background(): never cancelled). It is the one
// shared helper behind every cancellation check in the query stack —
// core, dynamic, and the public facade.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// forEachSource runs fn(i, scratch) for every i in [0, count), fanned
// across workers goroutines (Options.Workers when workers <= 0), each
// with its own SourceScratch. Sources are handed out from a shared atomic
// counter so stragglers don't idle a worker. Each call of fn is
// independent, so the results are identical at any worker count. It is
// the one batch loop: the resident reference methods and the serving
// engine both fan out through it.
//
// The first error fn returns stops the fan-out and is returned. ctx is
// observed between per-source units: once it is cancelled no new source
// starts (in-flight sources finish) and ctx.Err() is returned, so an
// abandoned batch stops burning CPU at source granularity. A ctx
// cancelled only after the last source was claimed does not fail the
// batch — completed work is returned, not discarded.
func (x *Index) forEachSource(ctx context.Context, count, workers int, fn func(i int, s *SourceScratch) error) error {
	if workers <= 0 {
		workers = x.prm.workers
	}
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		s := x.NewSourceScratch()
		for i := 0; i < count; i++ {
			if err := CtxErr(ctx); err != nil {
				return err
			}
			if err := fn(i, s); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := x.NewSourceScratch()
			for {
				// Claim before checking ctx: a worker that finds the work
				// exhausted returns cleanly, so a ctx cancelled after the
				// last source leaves a fully-computed batch intact.
				i := int(next.Add(1)) - 1
				if i >= count || firstErr.Load() != nil {
					return
				}
				err := CtxErr(ctx)
				if err == nil {
					err = fn(i, s)
				}
				if err != nil {
					// Copied before its address is taken, so the happy
					// path never heap-allocates an error variable.
					e := err
					firstErr.CompareAndSwap(nil, &e)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// SingleSourceBatch answers one single-source query per source in us,
// fanning the sources across workers goroutines (Options.Workers when
// workers <= 0) with per-worker scratch. Row i equals
// SingleSource(us[i], ...) exactly — per-source computation is untouched,
// so batch results are byte-identical to serial execution. A cancelled
// ctx (nil means never) stops the fan-out between sources and returns
// ctx.Err().
func (x *Index) SingleSourceBatch(ctx context.Context, us []graph.NodeID, workers int) ([][]float64, error) {
	n := x.g.NumNodes()
	out := make([][]float64, len(us))
	if err := x.forEachSource(ctx, len(us), workers, func(i int, s *SourceScratch) error {
		out[i] = x.SingleSource(us[i], s, make([]float64, n))
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// AllPairs materializes the full score matrix by running Algorithm 6 from
// every node — the procedure behind the paper's accuracy experiments
// (Figures 5-7) — parallel across Options.Workers. It needs O(n²) output
// memory; callers own sizing checks. Cancellation is observed between
// sources.
func (x *Index) AllPairs(ctx context.Context) (*power.Scores, error) {
	n := x.g.NumNodes()
	s := &power.Scores{N: n, Data: make([]float64, n*n)}
	if err := x.forEachSource(ctx, n, 0, func(u int, ss *SourceScratch) error {
		x.SingleSource(graph.NodeID(u), ss, s.Data[u*n:(u+1)*n])
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}
