package sling

// The shard-backend surface of sharded serving. A sharded deployment
// partitions the node space into contiguous ranges, each served by a
// shard index (Index.Shard) holding full O(n) metadata but HP entries
// only for its range. The router (internal/shard) talks to shards
// through ShardBackend and routes by ownership: a single-pair query
// fetches the two endpoint fragments from their owners and joins them
// locally, and a single-source or top-k query goes to the source's owner
// alone, which propagates the source's fragment over the whole graph.
// Every shard-side step reuses the single-index query code, so sharded
// answers are bitwise-identical to the unsharded index.

import (
	"context"
	"errors"
	"fmt"

	"sling/internal/core"
)

// Fragment is one node's effective HP entry list — the unit of transfer
// in sharded queries. Keys are (step, meeting-node) entry keys
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

// ShardBackend is the query surface a shard exposes to a router, beyond
// the ordinary Querier methods it also serves:
//
//   - Fragment returns a node's gathered HP entries. Only the shard
//     owning the node holds them; routers must route by the manifest.
//   - SourceSlice propagates a fragment through the shard's full graph
//     and returns the [lo, hi) slice of the score vector. Over [0, n) it
//     is the whole single-source answer.
//   - TopSlice is SourceSlice followed by top-k selection over [lo, hi)
//     in the global order. Over [0, n) it is the whole top-k answer.
//
// Both slice methods reject a fragment no gather of this index could
// have produced, so a malformed one from outside the process is an
// error, not a panic or a runaway propagation.
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
	if err := e.checkSliceCall(ctx, f, lo, hi); err != nil {
		return nil, err
	}
	return e.pool.SourceSlice(f.Keys, f.Vals, lo, hi), nil
}

// TopSlice implements ShardBackend.
func (e *engine) TopSlice(ctx context.Context, f *Fragment, k int, skip NodeID, lo, hi int) ([]Scored, error) {
	if err := e.checkSliceCall(ctx, f, lo, hi); err != nil {
		return nil, err
	}
	return e.pool.TopSlice(f.Keys, f.Vals, k, skip, lo, hi), nil
}

// checkSliceCall validates a SourceSlice or TopSlice call before any
// propagation: ctx, the slice bounds, and the fragment itself.
func (e *engine) checkSliceCall(ctx context.Context, f *Fragment, lo, hi int) error {
	if err := core.CtxErr(ctx); err != nil {
		return err
	}
	if err := checkSlice(e.n, lo, hi); err != nil {
		return err
	}
	if f == nil {
		return errors.New("sling: nil shard fragment")
	}
	if err := e.pool.CheckFragment(f.Keys, f.Vals); err != nil {
		return fmt.Errorf("sling: malformed shard fragment: %w", err)
	}
	return nil
}

// JoinFragments evaluates the Algorithm 3 merge join of two gathered
// fragments — the router-side half of a sharded single-pair query. The
// multiplication order matches the single-index join exactly, so the
// score is bitwise-identical to SimRank on the unsharded index.
func JoinFragments(u, v *Fragment) float64 {
	return core.JoinScoreD(u.Keys, u.Vals, u.DVals, v.Keys, v.Vals)
}
