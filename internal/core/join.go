package core

import (
	"sort"

	"sling/internal/graph"
)

// Threshold similarity join (the second query type of the paper's Section
// 8 related-work discussion): report every unordered pair {u, v} with
// s̃(u, v) ≥ τ.
//
// The join runs in two phases over the inverted lists:
//
//  1. Candidate generation. s̃(u, v) is a sum over the keys H(u) and H(v)
//     share, and a node's effective HP set has at most
//     C = 1/(θ(1−√c)) entries, so any qualifying pair shares at least one
//     key whose single contribution h_u·d̃_k·h_v is ≥ τ/C. Each inverted
//     list is sorted by descending h and pairs are enumerated only while
//     h_u·h_v·d̃_k clears that floor — hub-dominated lists cut off early.
//  2. Verification. Every candidate is scored exactly with the Algorithm 3
//     merge join; no approximation is introduced beyond the index's own ε.
//
// The result is exact with respect to the indexed scores s̃ (and hence
// within ε of true SimRank). Worst-case candidate counts degenerate to
// the output size of step 1; the bound τ/C is loose when θ is small, so
// this is a practical tool for moderate τ (say τ ≥ 0.1), which is the
// regime similarity joins target.

// JoinPair is one result of SimilarPairs: an unordered pair with its
// indexed score.
type JoinPair struct {
	U, V  graph.NodeID
	Score float64
}

// SimilarPairs returns all unordered pairs {u, v}, u < v, with
// s̃(u, v) ≥ tau, sorted by descending score (ties by (U, V)).
// It panics if tau is not in (0, 1].
func (x *Index) SimilarPairs(tau float64) []JoinPair {
	if tau <= 0 || tau > 1 {
		panic("core: SimilarPairs threshold out of (0,1]")
	}
	iv := x.BuildInverted()
	return iv.SimilarPairs(tau)
}

// SimilarPairs is the inverted-list join described on Index.SimilarPairs;
// building the lists once lets callers run several thresholds.
func (iv *Inverted) SimilarPairs(tau float64) []JoinPair {
	x := iv.x
	capEntries := 1 / (x.prm.theta * (1 - x.prm.sqrtC))
	floor := tau / capEntries

	type cand struct{ u, v int32 }
	seen := make(map[uint64]struct{})
	var cands []cand
	// Scratch for per-list descending-h order.
	var order []int32
	for li := 0; li < len(iv.keys); li++ {
		lo, hi := iv.off[li], iv.off[li+1]
		cnt := int(hi - lo)
		if cnt < 2 {
			continue
		}
		dk := x.d[keyNode(iv.keys[li])]
		if dk <= 0 {
			continue
		}
		order = order[:0]
		for i := 0; i < cnt; i++ {
			order = append(order, int32(i))
		}
		nodes, hs := iv.nodes[lo:hi], iv.vals[lo:hi]
		sort.Slice(order, func(a, b int) bool { return hs[order[a]] > hs[order[b]] })
		for a := 0; a < cnt; a++ {
			ia := order[a]
			// Largest possible partner product uses the list maximum.
			if hs[ia]*hs[order[0]]*dk < floor {
				break
			}
			for b := a + 1; b < cnt; b++ {
				ib := order[b]
				if hs[ia]*hs[ib]*dk < floor {
					break
				}
				u, v := nodes[ia], nodes[ib]
				if u > v {
					u, v = v, u
				}
				key := uint64(uint32(u))<<32 | uint64(uint32(v))
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				cands = append(cands, cand{u, v})
			}
		}
	}

	// Verification with the exact single-pair join. The resident entry
	// source cannot fail, so the pool's error is always nil.
	p := x.NewScratchPool()
	var out []JoinPair
	for _, c := range cands {
		score, _ := p.SimRank(c.u, c.v)
		if score >= tau {
			out = append(out, JoinPair{U: c.u, V: c.v, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
