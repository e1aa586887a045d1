package conformance

// The Querier contract test: every backend — library and wire — must
// agree not just on scores (the matrix covers that) but on the edges of
// the interface itself: which errors bad inputs produce, what degenerate
// k means, and that a dead context is observed before any work. This is
// what keeps a future backend (sharded, replicated) substitutable for
// the existing ones without each consumer re-learning its quirks.

import (
	"context"
	"errors"
	"testing"

	"sling"
)

// contractBackends builds the full backend group (static + HTTP modes +
// dynamic) over one small graph.
func contractBackends(t *testing.T) (n int, backends []Backend) {
	t.Helper()
	b := sling.NewGraphBuilder(10)
	for _, e := range [][2]sling.NodeID{
		{2, 0}, {3, 0}, {2, 1}, {3, 1}, {4, 2}, {4, 3}, {5, 4}, {0, 5},
	} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	opts := []sling.BuildOption{sling.WithEps(0.1), sling.WithSeed(29)}
	set, err := NewStaticSet(g, t.TempDir(), true, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Close)
	dx, err := sling.NewDynamic(g, &sling.DynamicOptions{NumWalks: 16}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dx.Close() })
	return g.NumNodes(), append(append([]Backend{set.Ref}, set.Others...), NamedBackend(dx, "dynamic"))
}

// TestQuerierContractBadNode: an out-of-range node yields an error
// wrapping sling.ErrNodeRange from every method of every backend,
// including the HTTP modes (reconstructed from the 400 code field).
func TestQuerierContractBadNode(t *testing.T) {
	n, backends := contractBackends(t)
	ctx := context.Background()
	for _, be := range backends {
		be := be
		t.Run(be.Name(), func(t *testing.T) {
			for _, bad := range []sling.NodeID{sling.NodeID(n), -1, 999} {
				if _, err := be.SimRank(ctx, bad, 0); !errors.Is(err, sling.ErrNodeRange) {
					t.Errorf("SimRank(%d, 0): err = %v, want ErrNodeRange", bad, err)
				}
				if _, err := be.SimRank(ctx, 0, bad); !errors.Is(err, sling.ErrNodeRange) {
					t.Errorf("SimRank(0, %d): err = %v, want ErrNodeRange", bad, err)
				}
				if _, err := be.SingleSource(ctx, bad, nil); !errors.Is(err, sling.ErrNodeRange) {
					t.Errorf("SingleSource(%d): err = %v, want ErrNodeRange", bad, err)
				}
				if _, err := be.SingleSourceBatch(ctx, []sling.NodeID{0, bad}); !errors.Is(err, sling.ErrNodeRange) {
					t.Errorf("SingleSourceBatch(0, %d): err = %v, want ErrNodeRange", bad, err)
				}
				if _, err := be.TopK(ctx, bad, 3); !errors.Is(err, sling.ErrNodeRange) {
					t.Errorf("TopK(%d): err = %v, want ErrNodeRange", bad, err)
				}
				if _, err := be.SourceTop(ctx, bad, 3); !errors.Is(err, sling.ErrNodeRange) {
					t.Errorf("SourceTop(%d): err = %v, want ErrNodeRange", bad, err)
				}
			}
		})
	}
}

// TestQuerierContractDegenerateK: k <= 0 answers empty (library
// backends; the HTTP API pins 400 for invalid k, covered in
// edgecases_test.go) and k > n answers exactly like k = n — identical
// across every backend.
func TestQuerierContractDegenerateK(t *testing.T) {
	n, backends := contractBackends(t)
	ctx := context.Background()
	for _, be := range backends {
		be := be
		_, isHTTP := be.(*httpBackend)
		t.Run(be.Name(), func(t *testing.T) {
			if !isHTTP {
				for _, k := range []int{0, -5} {
					if top, err := be.TopK(ctx, 2, k); err != nil || len(top) != 0 {
						t.Errorf("TopK(k=%d) = %v, err %v; want empty", k, top, err)
					}
				}
				if top, err := be.SourceTop(ctx, 2, 0); err != nil || len(top) != 0 {
					t.Errorf("SourceTop(limit=0) = %v, err %v; want empty", top, err)
				}
			}
			exact, err := be.TopK(ctx, 2, n)
			if err != nil {
				t.Fatalf("TopK(k=n): %v", err)
			}
			over, err := be.TopK(ctx, 2, 10*n)
			if err != nil {
				t.Fatalf("TopK(k>n): %v", err)
			}
			if !sameScored(exact, over) {
				t.Errorf("TopK(k>n) = %v differs from TopK(k=n) = %v", over, exact)
			}
		})
	}
}

// TestQuerierContractPreCancelled: a context cancelled before the call
// returns context.Canceled from every method without doing work.
func TestQuerierContractPreCancelled(t *testing.T) {
	_, backends := contractBackends(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, be := range backends {
		be := be
		t.Run(be.Name(), func(t *testing.T) {
			if _, err := be.SimRank(ctx, 0, 1); !errors.Is(err, context.Canceled) {
				t.Errorf("SimRank: err = %v, want context.Canceled", err)
			}
			if _, err := be.SingleSource(ctx, 0, nil); !errors.Is(err, context.Canceled) {
				t.Errorf("SingleSource: err = %v, want context.Canceled", err)
			}
			if _, err := be.SingleSourceBatch(ctx, []sling.NodeID{0, 1}); !errors.Is(err, context.Canceled) {
				t.Errorf("SingleSourceBatch: err = %v, want context.Canceled", err)
			}
			if _, err := be.TopK(ctx, 0, 3); !errors.Is(err, context.Canceled) {
				t.Errorf("TopK: err = %v, want context.Canceled", err)
			}
			if _, err := be.SourceTop(ctx, 0, 3); !errors.Is(err, context.Canceled) {
				t.Errorf("SourceTop: err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestQuerierContractMeta: Meta answers coherently everywhere — the node
// count matches, clamped backends say so, and C/Eps agree between the
// library reference and the wire adapters (scraped from /stats).
func TestQuerierContractMeta(t *testing.T) {
	n, backends := contractBackends(t)
	refMeta := backends[0].Meta()
	for _, be := range backends {
		m := be.Meta()
		if m.Nodes != n {
			t.Errorf("%s: Meta().Nodes = %d, want %d", be.Name(), m.Nodes, n)
		}
		if m.C != refMeta.C || m.Eps != refMeta.Eps {
			t.Errorf("%s: Meta() (C=%v, Eps=%v) disagrees with reference (C=%v, Eps=%v)",
				be.Name(), m.C, m.Eps, refMeta.C, refMeta.Eps)
		}
	}
}
