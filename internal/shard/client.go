package shard

import (
	"context"
	"io"

	"sling"
	"sling/internal/httpclient"
)

// Client is one shard as the router sees it: the three fragment
// primitives of sling.ShardBackend plus a Close releasing whatever the
// transport holds. The router calls Fragment on a node's owner, and
// SourceSlice or TopSlice over [0, n) on the same owner. The two
// implementations are a local in-process backend and the HTTP client
// driving a remote slingserver's /shard routes — the router cannot tell
// them apart, which is what lets the conformance matrix hold the HTTP
// deployment to bitwise equality.
type Client interface {
	Fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error)
	SourceSlice(ctx context.Context, f *sling.Fragment, lo, hi int) ([]float64, error)
	TopSlice(ctx context.Context, f *sling.Fragment, k int, skip sling.NodeID, lo, hi int) ([]sling.Scored, error)
	io.Closer
}

// The HTTP client already speaks the shard wire protocol.
var _ Client = (*httpclient.Client)(nil)

// localClient serves shard calls from an in-process backend (an
// in-memory or disk index sliced to the shard's range).
type localClient struct {
	b sling.ShardBackend
}

// NewLocal wraps an in-process shard backend as a Client. Close closes
// the backend.
func NewLocal(b sling.ShardBackend) Client { return localClient{b} }

func (c localClient) Fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error) {
	return c.b.Fragment(ctx, u)
}

func (c localClient) SourceSlice(ctx context.Context, f *sling.Fragment, lo, hi int) ([]float64, error) {
	return c.b.SourceSlice(ctx, f, lo, hi)
}

func (c localClient) TopSlice(ctx context.Context, f *sling.Fragment, k int, skip sling.NodeID, lo, hi int) ([]sling.Scored, error) {
	return c.b.TopSlice(ctx, f, k, skip, lo, hi)
}

func (c localClient) Close() error { return c.b.Close() }
