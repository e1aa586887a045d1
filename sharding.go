package sling

// The shard-backend surface of scatter/gather serving. A sharded
// deployment partitions the node space into contiguous ranges, each
// served by a shard index (Index.Shard) holding full O(n) metadata but HP
// entries only for its range. The router (internal/shard) talks to shards
// through ShardBackend: it fetches a query's endpoint fragments from
// their owning shards, then either joins them locally (single-pair) or
// broadcasts a fragment and gathers per-shard score slices or pruned
// local top-k lists. Every shard-side step reuses the single-index query
// code, so sharded answers are bitwise-identical to the unsharded index.

import (
	"context"
	"errors"
	"sort"

	"sling/internal/core"
)

// Fragment is one node's effective HP entry list — the unit of transfer
// in scatter/gather queries. Keys are (step, meeting-node) entry keys
// sorted ascending, Vals the hitting probabilities, and DVals the d̃
// correction factor of each entry's meeting node, carried along so a
// router holding no index can evaluate the Algorithm 3 merge join.
type Fragment struct {
	Node  NodeID    `json:"node"`
	Keys  []uint64  `json:"keys"`
	Vals  []float64 `json:"vals"`
	DVals []float64 `json:"dvals"`
}

// errSliceRange rejects malformed [lo, hi) slice bounds in ShardBackend
// calls. These are router protocol parameters, not caller-supplied node
// IDs, so it is distinct from ErrNodeRange.
var errSliceRange = errors.New("sling: shard slice range out of bounds")

func checkSlice(n, lo, hi int) error {
	if lo < 0 || hi > n || lo > hi {
		return errSliceRange
	}
	return nil
}

// ShardBackend is the query surface a shard exposes to a scatter/gather
// router, beyond the ordinary Querier methods it also serves:
//
//   - Fragment returns a node's gathered HP entries. Only the shard
//     owning the node holds them; routers must route by the manifest.
//   - SourceSlice propagates a (possibly remote) fragment through the
//     shard's full graph and returns the [lo, hi) slice of the score
//     vector — the shard's share of a single-source answer.
//   - TopSlice is SourceSlice followed by local top-k selection over
//     [lo, hi) with the global ordering, so per-shard k-pruned lists
//     merge losslessly.
//
// *Index and *DiskIndex implement ShardBackend natively.
type ShardBackend interface {
	Querier
	Fragment(ctx context.Context, u NodeID) (*Fragment, error)
	SourceSlice(ctx context.Context, f *Fragment, lo, hi int) ([]float64, error)
	TopSlice(ctx context.Context, f *Fragment, k int, skip NodeID, lo, hi int) ([]Scored, error)
}

var (
	_ ShardBackend = (*Index)(nil)
	_ ShardBackend = (*DiskIndex)(nil)
)

// Shard returns an index owning the contiguous node range [lo, hi): full
// metadata (graph, parameters, correction factors), HP entries only for
// the owned nodes. It serializes with Save as a standard SLIX file —
// the per-shard artifact `slingtool shard split` writes.
func (ix *Index) Shard(lo, hi int) *Index {
	return wrap(ix.x.Slice(lo, hi))
}

// EntryBytes returns the serialized size of each node's stored HP
// entries, the weight vector shard planning balances over.
func (ix *Index) EntryBytes() []int64 { return ix.x.EntryBytes() }

// Fragment implements ShardBackend: u's gathered HP entries, fetched
// from memory, a mapping, or a positioned read.
func (e *engine) Fragment(ctx context.Context, u NodeID) (*Fragment, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkNode(e.n, u); err != nil {
		return nil, err
	}
	keys, vals, dvals, err := e.pool.Fragment(u)
	if err != nil {
		return nil, err
	}
	return &Fragment{Node: u, Keys: keys, Vals: vals, DVals: dvals}, nil
}

// SourceSlice implements ShardBackend; propagation runs on the
// memory-resident metadata, so it costs no I/O.
func (e *engine) SourceSlice(ctx context.Context, f *Fragment, lo, hi int) ([]float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkSlice(e.n, lo, hi); err != nil {
		return nil, err
	}
	return e.pool.SourceSlice(f.Keys, f.Vals, lo, hi), nil
}

// TopSlice implements ShardBackend.
func (e *engine) TopSlice(ctx context.Context, f *Fragment, k int, skip NodeID, lo, hi int) ([]Scored, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkSlice(e.n, lo, hi); err != nil {
		return nil, err
	}
	return e.pool.TopSlice(f.Keys, f.Vals, k, skip, lo, hi), nil
}

// JoinFragments evaluates the Algorithm 3 merge join of two gathered
// fragments — the router-side half of a sharded single-pair query. The
// multiplication order matches the single-index join exactly, so the
// score is bitwise-identical to SimRank on the unsharded index.
func JoinFragments(u, v *Fragment) float64 {
	return core.JoinScoreD(u.Keys, u.Vals, u.DVals, v.Keys, v.Vals)
}

// MergeTop merges per-shard k-pruned top lists into the global top-k:
// concatenate, sort by the selection order, truncate. Because shard
// ranges partition the node space, any global top-k member survives its
// shard's local top-k, so the merge is lossless.
func MergeTop(lists [][]Scored, k int) []Scored {
	var all []Scored
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[j].WorseThan(all[i]) })
	if k < len(all) {
		all = all[:k]
	}
	return all
}
