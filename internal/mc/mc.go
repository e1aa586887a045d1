// Package mc implements the Monte Carlo SimRank baseline of Fogaras & Rácz
// (Section 3.2 of the SLING paper): an index of truncated reverse random
// walks per node, with single-pair and single-source queries that estimate
// s(u, v) = E[c^τ] from the first meeting step τ of paired walks.
//
// With truncation t > log_c(ε/2) and
// nw ≥ 14/(3ε²)·(log(2/δ) + 2·log n) walks per node, every score estimate
// is within ε with probability ≥ 1−δ. Those theory-driven counts explode
// at practical ε (the paper could not run MC beyond its four smallest
// graphs in 64 GB), so Options lets callers override the counts, and Build
// refuses to allocate past MaxIndexBytes instead of thrashing.
package mc

import (
	"fmt"
	"math"
	"sync"

	"sling/internal/graph"
	"sling/internal/power"
	"sling/internal/rng"
	"sling/internal/walk"
)

// MaxIndexBytes caps the walk-storage allocation; Build returns an error
// beyond it, mirroring the paper's practice of skipping MC on graphs whose
// index outgrows memory.
const MaxIndexBytes = 4 << 30

// Options configures Build.
type Options struct {
	// C is the SimRank decay factor; default 0.6 (the paper's setting).
	C float64
	// Eps/Delta set the accuracy target used to derive NumWalks and
	// Truncation when those are zero. Defaults: 0.025 and 0.01.
	Eps, Delta float64
	// NumWalks overrides the number of walks stored per node.
	NumWalks int
	// Truncation overrides the walk truncation length t.
	Truncation int
	// Seed makes the index deterministic; walks for node v depend only on
	// (Seed, v), not on scheduling.
	Seed uint64
	// Workers bounds build parallelism; default 1.
	Workers int
	// Coupled enables the Fogaras-Rácz coupling technique (Section 3.2 of
	// the SLING paper): under walk index w, the transition out of node x
	// at step l is a pseudo-random function of (Seed, w, l, x) shared by
	// all nodes, so walks that meet coalesce permanently. Estimates stay
	// unbiased — transitions of walks at distinct nodes remain independent
	// and only the first meeting matters — while coalesced suffixes make
	// single-source and all-pairs scans cheaper and sharply cut the
	// variance of comparisons among nodes behind a common ancestor.
	Coupled bool
}

func (o *Options) withDefaults() Options {
	opt := Options{C: 0.6, Eps: 0.025, Delta: 0.01, Workers: 1}
	if o != nil {
		if o.C != 0 {
			opt.C = o.C
		}
		if o.Eps != 0 {
			opt.Eps = o.Eps
		}
		if o.Delta != 0 {
			opt.Delta = o.Delta
		}
		opt.NumWalks = o.NumWalks
		opt.Truncation = o.Truncation
		opt.Seed = o.Seed
		if o.Workers > 0 {
			opt.Workers = o.Workers
		}
		opt.Coupled = o.Coupled
	}
	return opt
}

// DeriveTruncation returns the smallest t with c^(t+1) <= eps/2, the
// truncation bound from inequality (4) of the paper.
func DeriveTruncation(eps, c float64) int {
	t := int(math.Ceil(math.Log(eps/2)/math.Log(c))) - 1
	if t < 1 {
		t = 1
	}
	return t
}

// DeriveNumWalks returns the per-node walk count for an ε/δ guarantee over
// all pairs: nw = 14/(3ε²)·(log(2/δ) + 2·log n).
func DeriveNumWalks(eps, delta float64, n int) int {
	if n < 2 {
		n = 2
	}
	nw := 14.0 / (3 * eps * eps) * (math.Log(2/delta) + 2*math.Log(float64(n)))
	return int(math.Ceil(nw))
}

// Index is a built Monte Carlo SimRank index.
type Index struct {
	g   *graph.Graph
	c   float64
	nw  int
	t   int
	pow []float64 // pow[l] = c^l, l in [0, t]

	// steps holds walk positions flattened as
	// steps[(v*nw + w)*(t+1) + l]; -1 marks a walk that has ended.
	steps []int32
}

// Build generates nw truncated reverse walks per node.
func Build(g *graph.Graph, o *Options) (*Index, error) {
	opt := o.withDefaults()
	if opt.C <= 0 || opt.C >= 1 {
		return nil, fmt.Errorf("mc: decay factor %v out of (0,1)", opt.C)
	}
	nw := opt.NumWalks
	if nw <= 0 {
		nw = DeriveNumWalks(opt.Eps, opt.Delta, g.NumNodes())
	}
	t := opt.Truncation
	if t <= 0 {
		t = DeriveTruncation(opt.Eps, opt.C)
	}
	n := g.NumNodes()
	sz := int64(n) * int64(nw) * int64(t+1) * 4
	if sz > MaxIndexBytes {
		return nil, fmt.Errorf("mc: index would need %d bytes (n=%d nw=%d t=%d), over the %d cap",
			sz, n, nw, t, int64(MaxIndexBytes))
	}
	x := &Index{g: g, c: opt.C, nw: nw, t: t}
	x.pow = make([]float64, t+1)
	for l := 0; l <= t; l++ {
		x.pow[l] = math.Pow(opt.C, float64(l))
	}
	x.steps = make([]int32, int(sz/4))

	workers := opt.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			buf := make([]graph.NodeID, 0, t+1)
			for v := lo; v < hi; v++ {
				// Per-node stream keeps the index independent of the
				// worker layout.
				wk := walk.New(g, opt.C, rng.New(rng.MixSeed(opt.Seed, v)))
				// The stopping coin is unused by ReverseWalk, but Walker
				// validates c, which we want anyway.
				base := (v * nw) * (t + 1)
				for wi := 0; wi < nw; wi++ {
					if opt.Coupled {
						buf = coupledWalk(g, graph.NodeID(v), t, opt.Seed, wi, buf[:0])
					} else {
						buf = wk.ReverseWalk(graph.NodeID(v), t, buf[:0])
					}
					off := base + wi*(t+1)
					for l := 0; l <= t; l++ {
						if l < len(buf) {
							x.steps[off+l] = buf[l]
						} else {
							x.steps[off+l] = -1
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return x, nil
}

// coupledWalk follows the shared pseudo-random transition function: the
// in-neighbor chosen out of node x at step l under walk index wi depends
// only on (seed, wi, l, x). Any two coupled walks occupying the same node
// at the same step therefore take identical suffixes.
func coupledWalk(g *graph.Graph, v graph.NodeID, t int, seed uint64, wi int, buf []graph.NodeID) []graph.NodeID {
	buf = append(buf, v)
	cur := v
	for l := 0; l < t; l++ {
		cur = Transition(g, seed, wi, l, cur)
		if cur < 0 {
			return buf
		}
		buf = append(buf, cur)
	}
	return buf
}

// Transition returns the coupled next position out of node x at step l of
// walk index wi — the in-neighbor picked by the shared pseudo-random
// transition function of (seed, wi, l, x) — or -1 when x has no
// in-neighbors and the walk dies. It is the sampling primitive behind
// Options.Coupled, exported so other estimators (the dynamic-graph layer's
// affected-node queries) draw from the same coupling.
func Transition(g *graph.Graph, seed uint64, wi, l int, x graph.NodeID) graph.NodeID {
	ins := g.InNeighbors(x)
	if len(ins) == 0 {
		return -1
	}
	h := transitionHash(seed, uint64(wi), uint64(l), uint64(uint32(x)))
	return ins[h%uint64(len(ins))]
}

// transitionHash mixes the coupling coordinates into 64 uniform bits
// (SplitMix64-style finalizer over a combined key).
func transitionHash(seed, wi, l, node uint64) uint64 {
	z := seed
	z ^= wi*0x9e3779b97f4a7c15 + 0x165667b19e3779f9
	z ^= l*0xc2b2ae3d27d4eb4f + 0x27d4eb2f165667c5
	z ^= node * 0xff51afd7ed558ccd
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NumWalks returns the per-node walk count.
func (x *Index) NumWalks() int { return x.nw }

// Truncation returns the truncation length t.
func (x *Index) Truncation() int { return x.t }

// Bytes returns the memory footprint of the walk storage.
func (x *Index) Bytes() int64 { return int64(len(x.steps)) * 4 }

// walkOf returns the step array of walk wi from node v (length t+1,
// -1-padded).
func (x *Index) walkOf(v graph.NodeID, wi int) []int32 {
	off := (int(v)*x.nw + wi) * (x.t + 1)
	return x.steps[off : off+x.t+1]
}

// SimRank estimates s(u, v) as (1/nw)·Σ_w c^{τ_w} where τ_w is the first
// step at which the w-th walks from u and v coincide.
func (x *Index) SimRank(u, v graph.NodeID) float64 {
	if u == v {
		return 1
	}
	total := 0.0
	for wi := 0; wi < x.nw; wi++ {
		wu, wv := x.walkOf(u, wi), x.walkOf(v, wi)
		for l := 0; l <= x.t; l++ {
			a, b := wu[l], wv[l]
			if a < 0 || b < 0 {
				break
			}
			if a == b {
				total += x.pow[l]
				break
			}
		}
	}
	return total / float64(x.nw)
}

// SingleSource estimates s(u, v) for every node v, writing into out if it
// has capacity n and allocating otherwise. For each walk index it buckets
// every node's position per step, so a step costs O(n) rather than O(n·t)
// pairwise rescans.
func (x *Index) SingleSource(u graph.NodeID, out []float64) []float64 {
	n := x.g.NumNodes()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = 0
	}
	met := make([]bool, n)
	for wi := 0; wi < x.nw; wi++ {
		wu := x.walkOf(u, wi)
		for i := range met {
			met[i] = false
		}
		for l := 0; l <= x.t; l++ {
			pos := wu[l]
			if pos < 0 {
				break
			}
			add := x.pow[l]
			for v := 0; v < n; v++ {
				if met[v] {
					continue
				}
				wv := x.steps[(v*x.nw+wi)*(x.t+1)+l]
				if wv == pos {
					out[v] += add
					met[v] = true
				}
			}
		}
	}
	inv := 1 / float64(x.nw)
	for i := range out {
		out[i] *= inv
	}
	out[u] = 1
	return out
}

// AllPairs estimates every pairwise score at once. Instead of n²
// pairwise walk rescans it buckets nodes by walk position per (walk
// index, step): the nodes sharing a bucket — and not already matched at
// an earlier step of this walk index — meet now and contribute c^step.
// The result is identical to calling SimRank on every pair. It needs
// O(n²) memory for the output and the met bitmap; Build's caller guards
// sizes.
func (x *Index) AllPairs() *power.Scores {
	n := x.g.NumNodes()
	s := &power.Scores{N: n, Data: make([]float64, n*n)}
	// metEpoch[i*n+j] = wi+1 marks that the pair met under walk index wi,
	// so there is no O(n²) reset between walk indexes.
	metEpoch := make([]int32, n*n)
	// Intrusive chained buckets keyed by walk position: head/next arrays
	// reset via the touched list, no maps.
	head := make([]int32, n)
	next := make([]int32, n)
	var touched []int32
	for i := range head {
		head[i] = -1
	}
	for wi := 0; wi < x.nw; wi++ {
		epoch := int32(wi + 1)
		for l := 0; l <= x.t; l++ {
			touched = touched[:0]
			alive := 0
			for v := n - 1; v >= 0; v-- { // reverse so chains list ascending v
				pos := x.steps[(v*x.nw+wi)*(x.t+1)+l]
				if pos < 0 {
					continue
				}
				if head[pos] == -1 {
					touched = append(touched, pos)
				}
				next[v] = head[pos]
				head[pos] = int32(v)
				alive++
			}
			if alive == 0 {
				break
			}
			add := x.pow[l]
			for _, pos := range touched {
				for u := head[pos]; u != -1; u = next[u] {
					for v := next[u]; v != -1; v = next[v] {
						p := int(u)*n + int(v)
						if metEpoch[p] == epoch {
							continue
						}
						metEpoch[p] = epoch
						s.Data[p] += add
						s.Data[int(v)*n+int(u)] += add
					}
				}
				head[pos] = -1
			}
		}
	}
	inv := 1 / float64(x.nw)
	for i := range s.Data {
		s.Data[i] *= inv
	}
	for v := 0; v < n; v++ {
		s.Data[v*n+v] = 1
	}
	return s
}
