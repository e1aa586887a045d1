package main

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"sling"
)

// fakeShard answers shard calls instantly.
type fakeShard struct{}

func (fakeShard) Fragment(context.Context, sling.NodeID) (*sling.Fragment, error) {
	return &sling.Fragment{}, nil
}
func (fakeShard) SourceSlice(context.Context, *sling.Fragment, int, int) ([]float64, error) {
	return nil, nil
}
func (fakeShard) TopSlice(context.Context, *sling.Fragment, int, sling.NodeID, int, int) ([]sling.Scored, error) {
	return nil, nil
}
func (fakeShard) Close() error { return nil }

// Two closed-loop clients whose traced requests fan out to two shards
// on goroutines of their own, the way shard.Querier scatters: every
// span lands in its request's tree and the loop's counts add up.
func TestClosedLoopTracedFanOut(t *testing.T) {
	rec := newRecorder()
	shards := []tracingClient{{Client: fakeShard{}, idx: 0}, {Client: fakeShard{}, idx: 1}}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var wg sync.WaitGroup
		for _, s := range shards {
			wg.Add(1)
			go func(s tracingClient) {
				defer wg.Done()
				s.TopSlice(r.Context(), nil, 1, 0, 0, 1)
			}(s)
		}
		wg.Wait()
		w.Write([]byte("ok"))
	})
	ws := []*respWriter{newRespWriter(), newRespWriter()}
	l := closedLoop(2, 200*time.Millisecond, func(c int, i int64) outcome {
		if i%2 == 0 {
			d := serve(h, ws[c], newRequest(context.Background(), http.MethodGet, "/", nil))
			return outcome{lat: d, ok: true}
		}
		root := rec.begin("server", i, noParent, false)
		rt := newReqTrace(rec, i, root)
		d := serve(h, ws[c], newRequest(withTrace(context.Background(), rt), http.MethodGet, "/", nil))
		rec.end(root, int64(ws[c].body.Len()))
		if got := len(rt.log.calls); got != len(shards) {
			t.Errorf("request %d logged %d shard calls, want %d", i, got, len(shards))
		}
		return outcome{lat: d, ok: true, traced: true}
	})
	if l.attempted == 0 || l.failed != 0 {
		t.Fatalf("attempted %d, failed %d", l.attempted, l.failed)
	}
	if got := int64(len(l.untraced()) + len(l.tracedLat)); got != l.attempted {
		t.Fatalf("%d latencies for %d requests", got, l.attempted)
	}
	x := newSpanIndex(rec.snapshot())
	if got, want := x.count("shard.top"), 2*x.count("server"); got != want {
		t.Fatalf("%d shard spans for %d traced requests", got, x.count("server"))
	}
	for _, s := range x.spans {
		if s.name == "shard.top" && x.spans[s.parent].name != "server" {
			t.Fatalf("shard span %+v hangs under %+v", s, x.spans[s.parent])
		}
	}
}
