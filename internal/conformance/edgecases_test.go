package conformance

import (
	"context"
	"strings"
	"testing"

	"sling"
	"sling/internal/workload"
)

// edgeCaseSet builds every backend (static group + HTTP modes + a clean
// dynamic index) over a hand-made graph with an isolated node, so query
// edge cases hit all serving paths through the one adapter.
func edgeCaseSet(t *testing.T) (*sling.Graph, []Backend, func()) {
	t.Helper()
	b := sling.NewGraphBuilder(10)
	for _, e := range [][2]sling.NodeID{
		{2, 0}, {3, 0}, {2, 1}, {3, 1}, {4, 2}, {4, 3},
		{5, 4}, {6, 5}, {7, 6}, {0, 7}, {1, 7},
	} {
		b.AddEdge(e[0], e[1])
	}
	// Nodes 8 and 9 stay isolated.
	g := b.Build()
	opts := []sling.BuildOption{sling.WithEps(0.1), sling.WithSeed(11)}

	set, err := NewStaticSet(g, t.TempDir(), true, opts...)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := sling.NewDynamic(g, nil, opts...)
	if err != nil {
		set.Close()
		t.Fatal(err)
	}
	backends := append(set.All(), NamedBackend(dx, "dynamic"))
	return g, backends, func() {
		dx.Close()
		set.Close()
	}
}

// TestTopKEdgeCasesAcrossBackends drives k ≤ 0, k > n, zero/negative
// limits, and isolated-node queries through every backend. Library
// backends answer degenerate k with empty results; HTTP modes reject
// invalid parameters with 400 — both contracts are pinned here.
func TestTopKEdgeCasesAcrossBackends(t *testing.T) {
	g, backends, cleanup := edgeCaseSet(t)
	defer cleanup()
	n := g.NumNodes()
	ctx := context.Background()
	const isolated = sling.NodeID(9)

	for _, be := range backends {
		be := be
		_, isHTTP := be.(*httpBackend)
		t.Run(be.Name(), func(t *testing.T) {
			// k <= 0 and negative limit.
			for _, k := range []int{0, -3} {
				top, err := be.TopK(ctx, 2, k)
				if isHTTP {
					he, ok := err.(*HTTPError)
					if !ok || he.Code != 400 {
						t.Errorf("TopK(k=%d): want HTTP 400, got %v, err %v", k, top, err)
					}
				} else if err != nil || len(top) != 0 {
					t.Errorf("TopK(k=%d) = %v, err %v; want empty", k, top, err)
				}
			}
			if top, err := be.SourceTop(ctx, 2, -1); isHTTP {
				if he, ok := err.(*HTTPError); !ok || he.Code != 400 {
					t.Errorf("SourceTop(limit=-1): want HTTP 400, got %v, err %v", top, err)
				}
			} else if err != nil || len(top) != 0 {
				t.Errorf("SourceTop(limit=-1) = %v, err %v; want empty", top, err)
			}
			// limit = 0 is valid everywhere: an empty selection.
			if top, err := be.SourceTop(ctx, 2, 0); err != nil || len(top) != 0 {
				t.Errorf("SourceTop(limit=0) = %v, err %v; want empty", top, err)
			}

			// k > n must behave like k = n: every positive-score node,
			// never an out-of-range panic or truncation.
			row, err := be.SingleSource(ctx, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			big, err := be.TopK(ctx, 2, 10*n)
			if err != nil {
				t.Fatalf("TopK(k=%d): %v", 10*n, err)
			}
			positives := 0
			for v, s := range row {
				if s > 0 && sling.NodeID(v) != 2 {
					positives++
				}
			}
			if len(big) != positives {
				t.Errorf("TopK(k>n) returned %d entries, want %d positive scores", len(big), positives)
			}
			for i := 1; i < len(big); i++ {
				if big[i].Score > big[i-1].Score {
					t.Errorf("TopK(k>n) not sorted at %d", i)
				}
			}

			// Isolated node: s(u,u) = 1 exactly, everything else 0, so
			// top-k excludes all and source-top returns just the node.
			iso, err := be.SingleSource(ctx, isolated, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v, s := range iso {
				want := 0.0
				if sling.NodeID(v) == isolated {
					want = 1.0
				}
				if s != want {
					t.Errorf("isolated row[%d] = %v, want %v", v, s, want)
				}
			}
			if top, err := be.TopK(ctx, isolated, 3); err != nil || len(top) != 0 {
				t.Errorf("TopK(isolated) = %v, err %v; want empty", top, err)
			}
			st, err := be.SourceTop(ctx, isolated, 3)
			if err != nil || len(st) != 1 || st[0].Node != isolated || st[0].Score != 1 {
				t.Errorf("SourceTop(isolated) = %v, err %v; want [{%d 1}]", st, err, isolated)
			}
		})
	}
}

// TestEdgeListGraphAcrossBackends parses a deliberately messy edge list
// (CRLF line endings, both comment styles, blank lines, duplicate edges,
// a self-loop, out-of-order labels) and runs the full differential cell
// over it: every backend bitwise-consistent and within ε of exact
// SimRank on the parsed graph.
func TestEdgeListGraphAcrossBackends(t *testing.T) {
	const input = "# comment header\r\n" +
		"% other comment style\n" +
		"\n" +
		"100 7\r\n" +
		"7 100\n" +
		"100 7\n" + // duplicate edge
		"42 42\n" + // self-loop
		"7 42\t\n" +
		"  100   42  \n" +
		"5 100\n" +
		"5 7\n"
	g, labels, err := sling.LoadEdgeList(strings.NewReader(input), false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{100, 7, 42, 5}; len(labels) != len(want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	} else {
		for i := range want {
			if labels[i] != want[i] {
				t.Fatalf("labels = %v, want %v", labels, want)
			}
		}
	}
	// 8 lines parse to edges, one is a duplicate.
	if g.NumEdges() != 7 {
		t.Fatalf("parsed %d edges, want 7", g.NumEdges())
	}

	fam := workload.Family{Name: "edgelist", Gen: func(int, uint64) *sling.Graph { return g }}
	rep, err := Run(Options{
		Families: []workload.Family{fam},
		Configs:  []Config{{C: 0.6, Eps: 0.1}},
		Dir:      t.TempDir(),
		HTTP:     true,
		Dynamic:  true,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if !c.Pass {
			t.Errorf("%s/%s: %v", c.Family, c.Backend, c.Violations)
		}
	}
	if rep.MinHeadroom <= 0 {
		t.Fatalf("headroom %v not positive", rep.MinHeadroom)
	}
}
