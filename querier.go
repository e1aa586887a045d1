package sling

// The one query surface of the package. Before this interface existed the
// three facade types answered the same five queries through three
// incompatible signatures (the in-memory index infallible, the disk index
// error-returning, the dynamic index a third mix), and every consumer —
// the HTTP server, the conformance matrix, the CLIs — hand-wrote its own
// adapter per backend. Querier unifies them: context-aware, error-uniform,
// and implemented natively by *Index, *DiskIndex, and *DynamicIndex, so a
// serving layer written against Querier works over any backend, including
// future ones (sharded, replicated, remote).

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// ErrNodeRange is returned (wrapped, with the offending node and the
// valid range) by every Querier method handed a node ID outside
// [0, NumNodes). All backends agree on it: callers test with
// errors.Is(err, sling.ErrNodeRange), and the HTTP layer maps it to 400.
var ErrNodeRange = errors.New("sling: node out of range")

// QuerierMeta describes a query backend: which kind it is, the graph and
// guarantee it serves, and its scoring contract.
type QuerierMeta struct {
	// Name identifies the backend kind: "memory", "disk" (positioned
	// reads), "disk-mmap" (a mapped disk index), "dynamic", or an
	// adapter-specific label (e.g. "http-memory").
	Name string
	// Nodes is the number of nodes in the served graph.
	Nodes int
	// C is the SimRank decay factor the index was built with.
	C float64
	// Eps is the worst-case additive error guaranteed per score.
	Eps float64
	// Clamped reports whether every returned score lies in [0, 1]
	// (the dynamic layer clamps; raw index backends may overshoot by ε).
	Clamped bool
	// Epoch is the serving index generation for epoch-swapping backends
	// (the dynamic layer); 0 for immutable backends.
	Epoch uint64
	// Bytes is the backend's resident memory footprint: index structures
	// and the graph (a disk index counts its O(n) metadata, not the
	// entries it reads or maps). The multi-tenant catalog uses it to
	// account Queriers against its global memory budget, so every
	// backend must report a best-effort honest number rather than 0.
	Bytes int64
}

// Querier is the uniform query interface every SLING backend implements.
//
// Semantics shared by all implementations:
//
//   - Node IDs are validated first; out-of-range IDs return an error
//     wrapping ErrNodeRange, identically across backends.
//   - A cancelled ctx is observed before any work, and between
//     per-source units inside SingleSourceBatch, so abandoned requests
//     stop burning CPU mid-batch. The returned error is ctx.Err().
//   - TopK and SourceTop answer k <= 0 (or limit <= 0) with an empty
//     result and k > NumNodes like k = NumNodes.
//   - Close releases backend resources (a no-op for the in-memory
//     index); queries after Close are undefined.
type Querier interface {
	// SimRank returns s̃(u, v) within Meta().Eps of exact SimRank.
	SimRank(ctx context.Context, u, v NodeID) (float64, error)
	// SingleSource returns s̃(u, v) for every node v, writing into out
	// when it has capacity NumNodes.
	SingleSource(ctx context.Context, u NodeID, out []float64) ([]float64, error)
	// SingleSourceBatch answers one single-source query per source in
	// us; row i equals SingleSource(us[i]) exactly, at any concurrency.
	SingleSourceBatch(ctx context.Context, us []NodeID) ([][]float64, error)
	// TopK returns the k nodes most similar to u (excluding u itself) in
	// descending score order, ties broken by ascending node ID.
	TopK(ctx context.Context, u NodeID, k int) ([]Scored, error)
	// SourceTop returns the limit highest-scoring nodes for source u (u
	// itself included, typically first with s(u,u)≈1), same ordering.
	SourceTop(ctx context.Context, u NodeID, limit int) ([]Scored, error)
	// Meta describes the backend.
	Meta() QuerierMeta
	io.Closer
}

// Compile-time assertions: the three facade types are the canonical
// Querier implementations.
var (
	_ Querier = (*Index)(nil)
	_ Querier = (*DiskIndex)(nil)
	_ Querier = (*DynamicIndex)(nil)
)

// checkNode validates one node ID against a graph of n nodes.
func checkNode(n int, u NodeID) error {
	if u < 0 || int(u) >= n {
		return fmt.Errorf("%w: node %d not in [0,%d)", ErrNodeRange, u, n)
	}
	return nil
}

// checkNodes validates a batch of node IDs before any work runs, so a
// bad source fails the batch up front instead of mid-fan-out.
func checkNodes(n int, us []NodeID) error {
	for _, u := range us {
		if err := checkNode(n, u); err != nil {
			return err
		}
	}
	return nil
}
