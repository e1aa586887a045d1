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
// By Equation (13), s̃(u, j) = Σ_ℓ Σ_k h̃^(ℓ)(u,k)·d̃_k·h^(ℓ)(j,k). Seed
// σ_ℓ(k) = h̃^(ℓ)(u,k)·d̃_k for each step ℓ of H(u), and let one hop P be
// the local-update rule of Algorithm 2 run along out-edges,
//
//	(P·ρ)(y) = √c/|I(y)| · Σ_{v∈I(y)} ρ(v),
//
// so that (P^h·ρ)(j) = Σ_v h^(h)(j,v)·ρ(v). Then s̃(u, ·) = Σ_ℓ P^ℓ·σ_ℓ,
// which Algorithm 6 computes for every j at once.
//
// propagate evaluates that sum as one Horner fold rather than one ℓ-hop
// pass per step group: from the deepest step L of H(u) down to 1 it adds
// σ_h to a single running vector and hops once, then adds σ_0. A query
// costs L hops over the merged vector instead of Σℓ hops over the groups.
//
// Before the hop at level h, with h hops to go, every entry ≤ τ_h =
// (√c)^h·θ/(1−√c) is dropped. A dropped ρ(v) would have added
// ρ(v)·h^(h)(j,v) to node j, and Σ_v h^(h)(j,v) ≤ (√c)^h, so level h lowers
// any score by at most (√c)^h·τ_h = c^h·θ/(1−√c), and all levels together
// by at most
//
//	Σ_{h≥1} c^h·θ/(1−√c) = θ·c/((1−c)(1−√c)),
//
// never raising one (every value is non-negative). That is the worst
// case of the per-group pruning of Algorithm 6 as written (threshold
// (√c)^ℓ·θ at each of group ℓ's hops), √c·ε/4 at the default θ, and √c
// times the v-side truncation share √c·θ/((1−√c)(1−c)) of Theorem 1's ε
// budget, so Lemma 12's ε guarantee and O(m·log²(1/ε)) cost stand.

// SourceScratch holds the per-query buffers of single-source queries.
type SourceScratch struct {
	q *Scratch

	// cur is the fold's running vector and next the target of its hop,
	// each with the nodes it may be nonzero at listed (duplicates
	// allowed). Both are all-zero between calls.
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
	keys, vals := x.gather(u, s.q, 0)
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
	keys, vals := x.gather(u, s.q, 0)
	return x.topFrom(keys, vals, k, skip, 0, x.g.NumNodes(), s)
}

// propagate adds the Algorithm 6 scores of a gathered entry list into
// acc, which must be all-zero, and lists the nodes it makes nonzero in
// s.hits. It is the merged fold of the header: it finds each step group
// by scanning from the tail, so keys must be strictly ascending (a key
// out of order is never seeded), and it runs at most maxStep+1 levels
// for a deepest step maxStep whatever the fragment holds. s.cur and
// s.next are all-zero before and after. The caller empties s.hits (and
// s.acc, with drain, when that is the accumulator).
func (x *Index) propagate(keys []uint64, vals []float64, s *SourceScratch, acc []float64) {
	if len(keys) == 0 {
		return
	}
	sqrtC := x.prm.sqrtC
	hi := len(keys)
	top := keyStep(keys[hi-1])
	tau := math.Pow(sqrtC, float64(top)) * x.prm.theta / (1 - sqrtC)
	s.curList = s.curList[:0]
	for h := top; ; h-- {
		lo := hi
		for lo > 0 && keyStep(keys[lo-1]) == h {
			lo--
		}
		for i := lo; i < hi; i++ {
			k := keyNode(keys[i])
			if s.cur[k] == 0 {
				s.curList = append(s.curList, k)
			}
			s.cur[k] += vals[i] * x.d[k]
		}
		hi = lo
		if h == 0 {
			break
		}
		s.nextList = s.nextList[:0]
		for _, v := range s.curList {
			rho := s.cur[v]
			s.cur[v] = 0
			if rho <= tau {
				continue
			}
			for _, y := range x.g.OutNeighbors(v) {
				add := sqrtC * rho / float64(x.g.InDegree(y))
				if s.next[y] == 0 {
					s.nextList = append(s.nextList, y)
				}
				s.next[y] += add
			}
		}
		s.cur, s.next = s.next, s.cur
		s.curList, s.nextList = s.nextList, s.curList
		tau /= sqrtC
	}
	for _, v := range s.curList {
		if acc[v] == 0 && s.cur[v] != 0 {
			s.hits = append(s.hits, v)
		}
		acc[v] += s.cur[v]
		s.cur[v] = 0
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
	ku, vu := x.gather(u, s, 0)
	// Gathering v below uses only the second slot, so u's entries in
	// the first stay valid.
	for v := 0; v < n; v++ {
		kv, vv := x.gather(graph.NodeID(v), s, 1)
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

// ForEach runs fn(i, st) for every i in [0, count), fanned across at
// most workers goroutines, each with its own state from newState (a nil
// newState gives every worker the zero S). Indexes are handed out one at
// a time from a shared atomic counter so stragglers don't idle a worker.
// With workers <= 1 it runs inline on the caller's goroutine. Each call
// of fn is independent, so the results are identical at any worker
// count. It is the one parallel loop of the query stack and the build:
// the resident reference methods, the serving engine, the dynamic tier,
// and the build's d̃ and HP passes all fan out through it.
//
// The first error fn returns stops the fan-out and is returned. ctx (nil
// means never cancelled) is observed between units: once it is
// cancelled no new index starts (in-flight ones finish) and ctx.Err() is
// returned, so an abandoned batch stops burning CPU at unit granularity.
// A ctx cancelled only after the last index was claimed does not fail
// the batch — completed work is returned, not discarded.
func ForEach[S any](ctx context.Context, count, workers int, newState func() S, fn func(i int, st S) error) error {
	state := func() (st S) {
		if newState != nil {
			st = newState()
		}
		return st
	}
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		st := state()
		for i := 0; i < count; i++ {
			if err := CtxErr(ctx); err != nil {
				return err
			}
			if err := fn(i, st); err != nil {
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
			st := state()
			for {
				// Claim before checking ctx: a worker that finds the work
				// exhausted returns cleanly, so a ctx cancelled after the
				// last index leaves a fully-computed batch intact.
				i := int(next.Add(1)) - 1
				if i >= count || firstErr.Load() != nil {
					return
				}
				err := CtxErr(ctx)
				if err == nil {
					err = fn(i, st)
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

// forEachSource is ForEach with a SourceScratch per worker and
// Options.Workers goroutines when workers <= 0.
func (x *Index) forEachSource(ctx context.Context, count, workers int, fn func(i int, s *SourceScratch) error) error {
	if workers <= 0 {
		workers = x.prm.workers
	}
	return ForEach(ctx, count, workers, x.NewSourceScratch, fn)
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
