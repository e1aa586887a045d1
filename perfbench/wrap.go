package main

import (
	"context"
	"time"

	"sling"
	"sling/internal/shard"
)

// Where the program accepts an interface, the benchmark hands it a
// tracing wrapper: each call in a traced request's context becomes a
// live child span of the caller's span.

// tracingQuerier wraps the sling.Querier given to server.NewQuerier.
type tracingQuerier struct{ sling.Querier }

func (q tracingQuerier) TopK(ctx context.Context, u sling.NodeID, k int) ([]sling.Scored, error) {
	rt := traceOf(ctx)
	if rt == nil {
		return q.Querier.TopK(ctx, u, k)
	}
	id := rt.rec.begin("querier", rt.req, rt.parent, false)
	top, err := q.Querier.TopK(withTrace(ctx, rt.child(id)), u, k)
	rt.rec.end(id, int64(len(top)))
	rt.log.mu.Lock()
	rt.log.querier = id
	rt.log.mu.Unlock()
	return top, err
}

// tracingClient wraps one shard.Client given to shard.New.
type tracingClient struct {
	shard.Client
	idx int
}

func (c tracingClient) Fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error) {
	rt := traceOf(ctx)
	if rt == nil {
		return c.Client.Fragment(ctx, u)
	}
	id := rt.rec.begin("shard.fragment", rt.req, rt.parent, false)
	f, err := c.Client.Fragment(ctx, u)
	var n int64
	if f != nil {
		n = int64(len(f.Keys))
	}
	rt.rec.end(id, n)
	rt.log.add(shardCall{span: id, op: "fragment", shard: c.idx, f: f})
	return f, err
}

func (c tracingClient) TopSlice(ctx context.Context, f *sling.Fragment, k int, skip sling.NodeID, lo, hi int) ([]sling.Scored, error) {
	rt := traceOf(ctx)
	if rt == nil {
		return c.Client.TopSlice(ctx, f, k, skip, lo, hi)
	}
	id := rt.rec.begin("shard.top", rt.req, rt.parent, false)
	start := time.Now()
	top, err := c.Client.TopSlice(ctx, f, k, skip, lo, hi)
	d := time.Since(start)
	rt.rec.end(id, int64(len(top)))
	rt.log.add(shardCall{span: id, op: "top", shard: c.idx, f: f, k: k, skip: skip, lo: lo, hi: hi, dur: d})
	return top, err
}
