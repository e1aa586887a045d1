package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sling/internal/graph"
)

// countedErrCtx is a context whose Err() starts failing after a fixed
// number of calls, making "cancelled between the last claim and the
// final check" reproducible. With two workers and two sources, the
// fixed batch paths call Err() exactly once per claimed source (the
// check happens after claiming), so failAfter=2 models a ctx cancelled
// the instant the last source was handed out: the old
// check-then-claim loops always saw the cancellation and discarded the
// completed batch; the fixed ones never consult ctx again.
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

func lateCancelFixture(t *testing.T) (*Index, []graph.NodeID, [][]float64) {
	t.Helper()
	g := randomGraph(30, 150, 3)
	x, err := Build(g, &Options{Eps: 0.1, Seed: 3, Enhance: true})
	if err != nil {
		t.Fatal(err)
	}
	us := []graph.NodeID{4, 11}
	want, err := x.SingleSourceBatch(nil, us, 1)
	if err != nil {
		t.Fatal(err)
	}
	return x, us, want
}

func assertRowsEqual(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d differs at %d: %v vs %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestBatchLateCancelCompletes: a ctx that only reports cancelled after
// every source has been claimed must not fail the in-memory batch —
// the work is done; discarding it buys nothing.
func TestBatchLateCancelCompletes(t *testing.T) {
	x, us, want := lateCancelFixture(t)
	ctx := &countedErrCtx{failAfter: int64(len(us))}
	got, err := x.SingleSourceBatch(ctx, us, 2)
	if err != nil {
		t.Fatalf("late cancel discarded a completed batch: %v", err)
	}
	assertRowsEqual(t, got, want)

	// Cancelled before any work: still an error.
	if _, err := x.SingleSourceBatch(&countedErrCtx{failAfter: 0}, us, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("early cancel returned %v, want context.Canceled", err)
	}
}

// TestDiskBatchLateCancelCompletes is the disk-tier mirror of
// TestBatchLateCancelCompletes.
func TestDiskBatchLateCancelCompletes(t *testing.T) {
	g := randomGraph(30, 150, 3)
	_, path := saveTestIndex(t, g, &Options{Eps: 0.1, Seed: 3, Enhance: true})
	d, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p := d.NewScratchPool()
	us := []graph.NodeID{4, 11}
	want, err := p.SingleSourceBatch(nil, us, 1)
	if err != nil {
		t.Fatal(err)
	}

	ctx := &countedErrCtx{failAfter: int64(len(us))}
	got, err := p.SingleSourceBatch(ctx, us, 2)
	if err != nil {
		t.Fatalf("late cancel discarded a completed batch: %v", err)
	}
	assertRowsEqual(t, got, want)

	if _, err := p.SingleSourceBatch(&countedErrCtx{failAfter: 0}, us, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("early cancel returned %v, want context.Canceled", err)
	}
}
