// Package linearize implements the linearization SimRank baseline of
// Maehara et al. (Section 3.3 and Appendix A of the SLING paper).
//
// The method rests on S = Σ_ℓ c^ℓ (P^ℓ)ᵀ D P^ℓ (Lemma 2), where P is the
// column-stochastic in-neighbor matrix and D the diagonal correction
// matrix. Preprocessing estimates D: each row of the linear system (19) is
// built from R truncated reverse random walks, and the system is relaxed
// with L Gauss–Seidel sweeps. Queries then evaluate the truncated series
// (10) with sparse matrix-vector products. As the paper stresses, this
// pipeline carries no worst-case accuracy guarantee — D̃ is heuristic —
// which is exactly the weakness SLING repairs; it is reproduced here as
// the paper's principal comparison method.
package linearize

import (
	"fmt"
	"sync"

	"sling/internal/graph"
	"sling/internal/rng"
	"sling/internal/walk"
)

// Options configures Build. The zero value follows the paper's Section 7.1
// settings: c=0.6, T=11, R=100, L=3.
type Options struct {
	C float64 // decay factor; default 0.6
	T int     // series truncation; default 11
	R int     // reverse walks per node for estimating D; default 100
	L int     // Gauss-Seidel sweeps; default 3
	// Seed makes D estimation deterministic.
	Seed uint64
	// Workers bounds build parallelism; default 1.
	Workers int
}

func (o *Options) withDefaults() Options {
	opt := Options{C: 0.6, T: 11, R: 100, L: 3, Workers: 1}
	if o != nil {
		if o.C != 0 {
			opt.C = o.C
		}
		if o.T != 0 {
			opt.T = o.T
		}
		if o.R != 0 {
			opt.R = o.R
		}
		if o.L != 0 {
			opt.L = o.L
		}
		opt.Seed = o.Seed
		if o.Workers > 0 {
			opt.Workers = o.Workers
		}
	}
	return opt
}

// Index holds the estimated diagonal correction matrix. Queries walk the
// graph directly, so the index itself is O(n) on top of the graph.
type Index struct {
	g *graph.Graph
	c float64
	t int
	d []float64
}

// coeff is one off-diagonal coefficient of a row of linear system (19).
type coeff struct {
	i int32
	w float32
}

// Build estimates the diagonal correction matrix D.
func Build(g *graph.Graph, o *Options) (*Index, error) {
	opt := o.withDefaults()
	if opt.C <= 0 || opt.C >= 1 {
		return nil, fmt.Errorf("linearize: decay factor %v out of (0,1)", opt.C)
	}
	if opt.T < 1 || opt.R < 1 || opt.L < 1 {
		return nil, fmt.Errorf("linearize: T=%d R=%d L=%d must all be >= 1", opt.T, opt.R, opt.L)
	}
	n := g.NumNodes()
	x := &Index{g: g, c: opt.C, t: opt.T, d: make([]float64, n)}
	if n == 0 {
		return x, nil
	}

	// Row construction: for each k, rows[k] lists w_i = Σ_ℓ c^ℓ (p̃^(ℓ)_{k,i})²
	// over the nodes i visited by k's walks; diag[k] is the i=k entry.
	rows := make([][]coeff, n)
	diag := make([]float64, n)
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
			// Dense per-step visit counters with a touched list keep row
			// construction allocation-free across nodes.
			counts := make([]float64, n)
			weights := make([]float64, n)
			var touched []int32
			buf := make([]graph.NodeID, 0, opt.T+1)
			walks := make([][]graph.NodeID, opt.R)
			for k := lo; k < hi; k++ {
				wk := walk.New(g, opt.C, rng.New(rng.MixSeed(opt.Seed, k)))
				for r := 0; r < opt.R; r++ {
					buf = wk.ReverseWalk(graph.NodeID(k), opt.T, buf[:0])
					walks[r] = append(walks[r][:0], buf...)
				}
				touched = touched[:0]
				cl := 1.0
				for l := 0; l <= opt.T; l++ {
					// Accumulate visit counts for this step.
					var stepNodes []int32
					for r := 0; r < opt.R; r++ {
						if l >= len(walks[r]) {
							continue
						}
						v := walks[r][l]
						if counts[v] == 0 {
							stepNodes = append(stepNodes, v)
						}
						counts[v]++
					}
					for _, v := range stepNodes {
						p := counts[v] / float64(opt.R)
						if weights[v] == 0 {
							touched = append(touched, v)
						}
						weights[v] += cl * p * p
						counts[v] = 0
					}
					cl *= opt.C
				}
				row := make([]coeff, 0, len(touched))
				for _, i := range touched {
					if int(i) == k {
						diag[k] = weights[i]
					} else {
						row = append(row, coeff{i: i, w: float32(weights[i])})
					}
					weights[i] = 0
				}
				rows[k] = row
			}
		}(lo, hi)
	}
	wg.Wait()

	// Gauss-Seidel sweeps on Σ_i w_{k,i}·D_i = 1.
	for k := 0; k < n; k++ {
		x.d[k] = 1 - opt.C // standard warm start
	}
	for sweep := 0; sweep < opt.L; sweep++ {
		for k := 0; k < n; k++ {
			if diag[k] == 0 {
				// No walk mass at all (isolated node): step-0 always visits
				// k itself, so this cannot happen unless R=0; keep default.
				continue
			}
			sum := 0.0
			for _, cf := range rows[k] {
				sum += float64(cf.w) * x.d[cf.i]
			}
			x.d[k] = (1 - sum) / diag[k]
		}
	}
	return x, nil
}

// SetD overrides the correction factors, letting tests and experiments run
// the query machinery with an exact D. It panics on a length mismatch.
func (x *Index) SetD(d []float64) {
	if len(d) != len(x.d) {
		panic("linearize: SetD length mismatch")
	}
	copy(x.d, d)
}

// Bytes returns the index footprint (the D vector).
func (x *Index) Bytes() int64 { return int64(len(x.d)) * 8 }

// Scratch holds the per-query work vectors so repeated queries do not
// allocate. A Scratch must not be shared across goroutines.
type Scratch struct {
	u, v, r, tmp []float64
	frontier     []int32
	levels       [][]float64
}

// NewScratch sizes a Scratch for the index's graph.
func (x *Index) NewScratch() *Scratch {
	n := x.g.NumNodes()
	s := &Scratch{
		u:   make([]float64, n),
		v:   make([]float64, n),
		r:   make([]float64, n),
		tmp: make([]float64, n),
	}
	s.levels = make([][]float64, x.t+1)
	for i := range s.levels {
		s.levels[i] = make([]float64, n)
	}
	return s
}

// applyP computes dst = P·src:  dst(x) = Σ_{j : x∈I(j)} src(j)/|I(j)|,
// a scatter from each node to its in-neighbors.
func (x *Index) applyP(dst, src []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for j := range src {
		s := src[j]
		if s == 0 {
			continue
		}
		ins := x.g.InNeighbors(graph.NodeID(j))
		if len(ins) == 0 {
			continue
		}
		share := s / float64(len(ins))
		for _, i := range ins {
			dst[i] += share
		}
	}
}

// applyPT computes dst = Pᵀ·src: dst(j) = (1/|I(j)|)·Σ_{i∈I(j)} src(i),
// a gather over in-neighbors.
func (x *Index) applyPT(dst, src []float64) {
	for j := range dst {
		ins := x.g.InNeighbors(graph.NodeID(int32(j)))
		if len(ins) == 0 {
			dst[j] = 0
			continue
		}
		sum := 0.0
		for _, i := range ins {
			sum += src[i]
		}
		dst[j] = sum / float64(len(ins))
	}
}

// SimRank evaluates the truncated series (10):
// s̃(u,v) = Σ_{ℓ=0..T} c^ℓ (P^ℓ e_u)ᵀ D (P^ℓ e_v).
func (x *Index) SimRank(u, v graph.NodeID, s *Scratch) float64 {
	if s == nil {
		s = x.NewScratch()
	}
	if u == v {
		return 1
	}
	n := x.g.NumNodes()
	uv, vv, tmp := s.u, s.v, s.tmp
	for i := 0; i < n; i++ {
		uv[i], vv[i] = 0, 0
	}
	uv[u], vv[v] = 1, 1
	total := 0.0
	cl := 1.0
	for l := 0; ; l++ {
		dot := 0.0
		for i := 0; i < n; i++ {
			if uv[i] != 0 && vv[i] != 0 {
				dot += uv[i] * x.d[i] * vv[i]
			}
		}
		total += cl * dot
		if l == x.t {
			break
		}
		x.applyP(tmp, uv)
		copy(uv, tmp)
		x.applyP(tmp, vv)
		copy(vv, tmp)
		cl *= x.c
	}
	if total > 1 {
		total = 1
	}
	return total
}

// SingleSource evaluates s̃(u, ·) = Σ_ℓ c^ℓ (Pᵀ)^ℓ (D ⊙ P^ℓ e_u) with a
// Horner-style backward pass, writing into out if it has capacity n.
func (x *Index) SingleSource(u graph.NodeID, s *Scratch, out []float64) []float64 {
	if s == nil {
		s = x.NewScratch()
	}
	n := x.g.NumNodes()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	// Forward: levels[ℓ] = P^ℓ e_u.
	for i := range s.levels[0] {
		s.levels[0][i] = 0
	}
	s.levels[0][u] = 1
	for l := 1; l <= x.t; l++ {
		x.applyP(s.levels[l], s.levels[l-1])
	}
	// Backward Horner: A_ℓ = D·v_ℓ + c·Pᵀ·A_{ℓ+1}; answer A_0.
	acc := s.r
	for i := 0; i < n; i++ {
		acc[i] = x.d[i] * s.levels[x.t][i]
	}
	for l := x.t - 1; l >= 0; l-- {
		x.applyPT(s.tmp, acc)
		for i := 0; i < n; i++ {
			acc[i] = x.d[i]*s.levels[l][i] + x.c*s.tmp[i]
		}
	}
	copy(out, acc)
	out[u] = 1
	for i := range out {
		if out[i] > 1 {
			out[i] = 1
		}
	}
	return out
}

// ExactD computes the true diagonal correction factors from a ground-truth
// all-pairs score matrix via Equation (14):
// d_k = 1 − c/|I(k)| − c/|I(k)|² Σ_{i≠j ∈ I(k)} s(i,j),
// with d_k = 1 for nodes without in-neighbors. It is an oracle for tests
// and for the paper's "Linearize with precise D" discussions.
func ExactD(g *graph.Graph, c float64, scores func(i, j int) float64) []float64 {
	n := g.NumNodes()
	d := make([]float64, n)
	for k := 0; k < n; k++ {
		ins := g.InNeighbors(graph.NodeID(k))
		deg := len(ins)
		if deg == 0 {
			d[k] = 1
			continue
		}
		sum := 0.0
		for _, i := range ins {
			for _, j := range ins {
				if i != j {
					sum += scores(int(i), int(j))
				}
			}
		}
		d[k] = 1 - c/float64(deg) - c*sum/float64(deg*deg)
	}
	return d
}
