package dynamic

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sling/internal/core"
	"sling/internal/graph"
)

// countedErrCtx is a context whose Err() starts failing after a fixed
// number of calls (the dynamic mirror of core's). A batch that claims a
// source before checking ctx calls Err() once per source, so failAfter =
// len(us) models a ctx cancelled the instant the last source was handed
// out.
type countedErrCtx struct {
	failAfter int64
	calls     atomic.Int64
}

func (c *countedErrCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countedErrCtx) Done() <-chan struct{}       { return nil }
func (c *countedErrCtx) Value(any) any               { return nil }
func (c *countedErrCtx) Err() error {
	if c.calls.Add(1) > c.failAfter {
		return context.Canceled
	}
	return nil
}

// TestBatchLateCancelCompletes: a ctx that only reports cancelled after
// every source has been claimed must not fail the dynamic batch at any
// worker count, and a ctx cancelled before any work must.
func TestBatchLateCancelCompletes(t *testing.T) {
	g, edges := randomGraph(30, 150, 3)
	d, err := New(g, Options{Build: core.Options{Eps: 0.1, Seed: 3}, NumWalks: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A new in-edge makes source 11 affected, so it takes the Monte Carlo
	// path.
	from := graph.NodeID(0)
	for contains(edges, from, 11) {
		from++
	}
	if did, err := d.AddEdge(from, 11); err != nil || !did {
		t.Fatalf("AddEdge(%d, 11) = %v, %v", from, did, err)
	}
	us := []graph.NodeID{11, 20}
	want, err := d.SingleSourceBatch(nil, us, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		got, err := d.SingleSourceBatch(&countedErrCtx{failAfter: int64(len(us))}, us, workers)
		if err != nil {
			t.Fatalf("workers=%d: late cancel discarded a completed batch: %v", workers, err)
		}
		for i := range want {
			for v := range want[i] {
				if got[i][v] != want[i][v] {
					t.Fatalf("workers=%d: row %d differs at %d: %v vs %v", workers, i, v, got[i][v], want[i][v])
				}
			}
		}
		if _, err := d.SingleSourceBatch(&countedErrCtx{failAfter: 0}, us, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: early cancel returned %v, want context.Canceled", workers, err)
		}
	}
}
