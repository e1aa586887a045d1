package shard

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sling"
)

// shardCall is one call a countingClient forwarded: the method, the
// shard, the fragment's node, and the slice bounds (zero for Fragment).
type shardCall struct {
	op           string
	shard        int
	node, lo, hi int
}

// callLog collects the calls of every countingClient of one router.
type callLog struct{ calls []shardCall }

func (l *callLog) add(c shardCall) { l.calls = append(l.calls, c) }

// take returns the calls logged since the last take.
func (l *callLog) take() []shardCall {
	calls := l.calls
	l.calls = nil
	return calls
}

// countingClient logs every call before forwarding it.
type countingClient struct {
	Client
	shard int
	log   *callLog
}

func (c countingClient) Fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error) {
	c.log.add(shardCall{op: "fragment", shard: c.shard, node: int(u)})
	return c.Client.Fragment(ctx, u)
}

func (c countingClient) SourceSlice(ctx context.Context, f *sling.Fragment, lo, hi int) ([]float64, error) {
	c.log.add(shardCall{op: "source", shard: c.shard, node: int(f.Node), lo: lo, hi: hi})
	return c.Client.SourceSlice(ctx, f, lo, hi)
}

func (c countingClient) TopSlice(ctx context.Context, f *sling.Fragment, k int, skip sling.NodeID, lo, hi int) ([]sling.Scored, error) {
	c.log.add(shardCall{op: "top", shard: c.shard, node: int(f.Node), lo: lo, hi: hi})
	return c.Client.TopSlice(ctx, f, k, skip, lo, hi)
}

// wrapClients builds an in-process sharded querier over ix whose
// clients are replaced by wrap(i, client).
func wrapClients(t *testing.T, ix *sling.Index, nshards int, wrap func(i int, c Client) Client) *Querier {
	t.Helper()
	m, clients := InProcess(ix, nshards)
	for i, c := range clients {
		clients[i] = wrap(i, c)
	}
	q, err := New(m, clients, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

// TestOwnerOnlyRouting pins owner-computes routing: a top-k,
// source-top or single-source query makes exactly one Fragment call and
// one slice call over the whole graph, both on u's owner, and calls no
// other shard.
func TestOwnerOnlyRouting(t *testing.T) {
	g := testGraph(120, 500, 11)
	ix := buildIndex(t, g)
	n := g.NumNodes()
	for _, nshards := range []int{1, 2, 3, 5} {
		log := &callLog{}
		q := wrapClients(t, ix, nshards, func(i int, c Client) Client {
			return countingClient{Client: c, shard: i, log: log}
		})
		for owner, s := range q.man.Shards {
			u := sling.NodeID(s.Lo + (s.Hi-s.Lo)/2)
			families := []struct {
				name, op string
				run      func() error
			}{
				{"TopK", "top", func() error { _, err := q.TopK(bg, u, 5); return err }},
				{"SourceTop", "top", func() error { _, err := q.SourceTop(bg, u, 5); return err }},
				{"SingleSource", "source", func() error { _, err := q.SingleSource(bg, u, nil); return err }},
			}
			for _, fam := range families {
				if err := fam.run(); err != nil {
					t.Fatal(err)
				}
				want := []shardCall{
					{op: "fragment", shard: owner, node: int(u)},
					{op: fam.op, shard: owner, node: int(u), lo: 0, hi: n},
				}
				if got := log.take(); !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d %s(%d): calls %+v, want %+v", nshards, fam.name, u, got, want)
				}
			}
		}
	}
}

// downClient fails every Fragment call with err.
type downClient struct {
	Client
	err error
}

func (c downClient) Fragment(context.Context, sling.NodeID) (*sling.Fragment, error) {
	return nil, c.err
}

// TestShardedBatchError pins that a batch with a source on a failing
// shard returns that shard's error, counted against that shard alone.
func TestShardedBatchError(t *testing.T) {
	g := testGraph(60, 240, 31)
	ix := buildIndex(t, g)
	errDown := errors.New("shard 1 is down")
	q := wrapClients(t, ix, 3, func(i int, c Client) Client {
		if i == 1 {
			return downClient{Client: c, err: errDown}
		}
		return c
	})
	var us []sling.NodeID
	for _, s := range q.man.Shards {
		us = append(us, sling.NodeID(s.Lo), sling.NodeID(s.Hi-1))
	}
	if _, err := q.SingleSourceBatch(bg, us); !errors.Is(err, errDown) {
		t.Fatalf("batch err = %v, want %v", err, errDown)
	}
	for i, c := range q.errs {
		want := uint64(0)
		if i == 1 {
			want = 1
		}
		if got := c.Value(); got != want {
			t.Fatalf("shard %d error count = %d, want %d", i, got, want)
		}
	}
}

// badClient forwards to a real shard and then corrupts its answers.
type badClient struct {
	Client
	frag func(*sling.Fragment)
	top  func([]sling.Scored) []sling.Scored
}

func (c badClient) Fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error) {
	f, err := c.Client.Fragment(ctx, u)
	if err == nil && c.frag != nil {
		c.frag(f)
	}
	return f, err
}

func (c badClient) TopSlice(ctx context.Context, f *sling.Fragment, k int, skip sling.NodeID, lo, hi int) ([]sling.Scored, error) {
	top, err := c.Client.TopSlice(ctx, f, k, skip, lo, hi)
	if err == nil && c.top != nil {
		top = c.top(top)
	}
	return top, err
}

// TestShardedRejectsMalformedAnswers pins that the router checks what a
// shard answers before using it: a malformed fragment or top list is an
// error counted against the shard, never a panic or a bad answer passed
// on.
func TestShardedRejectsMalformedAnswers(t *testing.T) {
	g := testGraph(60, 240, 31)
	ix := buildIndex(t, g)
	n := g.NumNodes()
	topK := func(q *Querier) error { _, err := q.TopK(bg, 7, 5); return err }
	pair := func(q *Querier) error { _, err := q.SimRank(bg, 7, 50); return err }
	cases := []struct {
		name string
		bad  badClient
		run  func(q *Querier) error
	}{
		{"top node beyond n", badClient{top: func(top []sling.Scored) []sling.Scored {
			return append(top[:1], sling.Scored{Node: sling.NodeID(n), Score: 0})
		}}, topK},
		{"top negative node", badClient{top: func(top []sling.Scored) []sling.Scored {
			return append(top[:1], sling.Scored{Node: -3, Score: 0})
		}}, topK},
		{"top lists skip", badClient{top: func(top []sling.Scored) []sling.Scored {
			return append(top[:1], sling.Scored{Node: 7, Score: 0})
		}}, topK},
		{"top longer than k", badClient{top: func(top []sling.Scored) []sling.Scored {
			return append(top, sling.Scored{Node: sling.NodeID(n - 1), Score: 0})
		}}, topK},
		{"top out of order", badClient{top: func(top []sling.Scored) []sling.Scored {
			top[0], top[1] = top[1], top[0]
			return top
		}}, topK},
		{"fragment short vals", badClient{frag: func(f *sling.Fragment) { f.Vals = f.Vals[:len(f.Vals)-1] }}, pair},
		{"fragment short dvals", badClient{frag: func(f *sling.Fragment) { f.DVals = f.DVals[:0] }}, pair},
		{"fragment of another node", badClient{frag: func(f *sling.Fragment) { f.Node++ }}, pair},
	}
	// Each corruption breaks exactly one rule only if node 7 has a full
	// top-5 list.
	if top, err := ix.TopK(bg, 7, 5); err != nil || len(top) != 5 {
		t.Fatalf("TopK(7, 5) = %v (%v), want 5 entries", top, err)
	}
	for _, tc := range cases {
		q := wrapClients(t, ix, 2, func(_ int, c Client) Client {
			bad := tc.bad
			bad.Client = c
			return bad
		})
		if err := tc.run(q); err == nil {
			t.Fatalf("%s: router accepted the answer", tc.name)
		}
		var errs uint64
		for _, c := range q.errs {
			errs += c.Value()
		}
		if errs != 1 {
			t.Fatalf("%s: %d shard errors counted, want 1", tc.name, errs)
		}
	}
}
