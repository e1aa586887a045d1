package conformance

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sling"
	"sling/internal/catalog"
	"sling/internal/rng"
	"sling/internal/server"
)

// The catalog server must be invisible in the scores: a graph served
// through /g/{id}/... routing — lazy open, handle leasing, quota
// accounting, metric observation — answers every query bitwise-equal to
// a Querier constructed directly from the same edge list and options.
// These tests pin that equivalence for all three backend modes at once,
// and run the catalog-served backends through the same contract checks
// (bad nodes, pre-cancelled contexts, Meta coherence) as the rest of
// the harness.

const catalogNodes = 24

// writeCatalogGraph writes a directed edge list: a ring (so every node
// appears, in order, making dense IDs equal labels) plus seeded random
// edges.
func writeCatalogGraph(t *testing.T, path string, seed int64) {
	t.Helper()
	r := rng.New(uint64(seed))
	var buf []byte
	for i := 0; i < catalogNodes; i++ {
		buf = append(buf, fmt.Sprintf("%d %d\n", i, (i+1)%catalogNodes)...)
	}
	for i := 0; i < 5*catalogNodes; i++ {
		buf = append(buf, fmt.Sprintf("%d %d\n", r.Intn(catalogNodes), r.Intn(catalogNodes))...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// catalogSet serves mem+disk+dyn graphs through one catalog server and
// builds the reference Querier for each from the same inputs. Returned
// backends are keyed by graph ID.
func catalogSet(t *testing.T) (srv *server.Server, http map[string]Backend, refs map[string]sling.Querier) {
	t.Helper()
	dir := t.TempDir()
	for id, seed := range map[string]int64{"mem": 3, "disk": 5, "dyn": 7} {
		writeCatalogGraph(t, filepath.Join(dir, id+".txt"), seed)
	}

	// The disk entry opens a prebuilt index file; build and save it now.
	gDisk, _, err := sling.LoadEdgeListFile(filepath.Join(dir, "disk.txt"), false)
	if err != nil {
		t.Fatal(err)
	}
	ixDisk, err := sling.Build(gDisk, sling.WithEps(0.1), sling.WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	slix := filepath.Join(dir, "disk.slix")
	if err := ixDisk.Save(slix); err != nil {
		t.Fatal(err)
	}
	ixDisk.Close()

	m := catalog.Manifest{
		Default: "mem",
		Graphs: []catalog.GraphSpec{
			{ID: "mem", Graph: filepath.Join(dir, "mem.txt"), Eps: 0.1, Seed: 41},
			{ID: "disk", Graph: filepath.Join(dir, "disk.txt"), Mode: "disk", Index: slix},
			{ID: "dyn", Graph: filepath.Join(dir, "dyn.txt"), Mode: "dynamic", Eps: 0.12, Seed: 47, Walks: 32},
		},
	}
	cat, err := catalog.New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	srv, err = server.NewCatalog(cat, server.Config{})
	if err != nil {
		t.Fatal(err)
	}

	refs = make(map[string]sling.Querier)
	gMem, _, err := sling.LoadEdgeListFile(filepath.Join(dir, "mem.txt"), false)
	if err != nil {
		t.Fatal(err)
	}
	refs["mem"], err = sling.Build(gMem, sling.WithEps(0.1), sling.WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	refs["disk"], err = sling.OpenDisk(slix, gDisk)
	if err != nil {
		t.Fatal(err)
	}
	gDyn, _, err := sling.LoadEdgeListFile(filepath.Join(dir, "dyn.txt"), false)
	if err != nil {
		t.Fatal(err)
	}
	refs["dyn"], err = sling.NewDynamic(gDyn, &sling.DynamicOptions{NumWalks: 32, Seed: 47},
		sling.WithEps(0.12), sling.WithSeed(47))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, q := range refs {
			q.Close()
		}
	})

	http = make(map[string]Backend)
	for _, id := range []string{"mem", "disk", "dyn"} {
		// The dynamic layer clamps scores to [0, 1]; its wire backend
		// carries the same flag so Meta stays coherent.
		// The route prefix "/g/"+id drives /g/{id}/simrank and the rest.
		http[id] = newHTTPBackend("http-catalog-"+id, srv, "/g/"+id, catalogNodes, id == "dyn")
	}
	return srv, http, refs
}

func TestCatalogServerBitwiseEqualsDirect(t *testing.T) {
	_, backends, refs := catalogSet(t)
	ctx := context.Background()
	for _, id := range []string{"mem", "disk", "dyn"} {
		be, ref := backends[id], refs[id]
		t.Run(id, func(t *testing.T) {
			for u := sling.NodeID(0); u < catalogNodes; u += 5 {
				for v := sling.NodeID(0); v < catalogNodes; v += 7 {
					want, err := ref.SimRank(ctx, u, v)
					if err != nil {
						t.Fatal(err)
					}
					got, err := be.SimRank(ctx, u, v)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("SimRank(%d,%d): catalog %v != direct %v", u, v, got, want)
					}
				}
			}
			for u := sling.NodeID(0); u < catalogNodes; u += 3 {
				want, err := ref.SingleSource(ctx, u, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := be.SingleSource(ctx, u, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRows(got, want) {
					t.Fatalf("SingleSource(%d) differs through catalog routing", u)
				}

				wantK, err := ref.TopK(ctx, u, 8)
				if err != nil {
					t.Fatal(err)
				}
				gotK, err := be.TopK(ctx, u, 8)
				if err != nil {
					t.Fatal(err)
				}
				if !sameScored(gotK, wantK) {
					t.Fatalf("TopK(%d, 8) differs through catalog routing", u)
				}

				wantS, err := ref.SourceTop(ctx, u, 6)
				if err != nil {
					t.Fatal(err)
				}
				gotS, err := be.SourceTop(ctx, u, 6)
				if err != nil {
					t.Fatal(err)
				}
				if !sameScored(gotS, wantS) {
					t.Fatalf("SourceTop(%d, 6) differs through catalog routing", u)
				}
			}
			us := []sling.NodeID{0, 7, 13, 23}
			want, err := ref.SingleSourceBatch(ctx, us)
			if err != nil {
				t.Fatal(err)
			}
			got, err := be.SingleSourceBatch(ctx, us)
			if err != nil {
				t.Fatal(err)
			}
			for i := range us {
				if !sameRows(got[i], want[i]) {
					t.Fatalf("SingleSourceBatch row %d differs through catalog routing", i)
				}
			}
		})
	}
}

func TestCatalogServerContract(t *testing.T) {
	_, backends, _ := catalogSet(t)
	ctx := context.Background()
	for _, id := range []string{"mem", "disk", "dyn"} {
		be := backends[id]
		t.Run(id, func(t *testing.T) {
			for _, bad := range []sling.NodeID{catalogNodes, -1, 999} {
				if _, err := be.SimRank(ctx, bad, 0); !errors.Is(err, sling.ErrNodeRange) {
					t.Errorf("SimRank(%d, 0): got %v, want ErrNodeRange", bad, err)
				}
				if _, err := be.TopK(ctx, bad, 3); !errors.Is(err, sling.ErrNodeRange) {
					t.Errorf("TopK(%d, 3): got %v, want ErrNodeRange", bad, err)
				}
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := be.SimRank(cancelled, 0, 1); !errors.Is(err, context.Canceled) {
				t.Errorf("pre-cancelled SimRank: got %v, want context.Canceled", err)
			}
			m := be.Meta()
			if m.Nodes != catalogNodes {
				t.Errorf("Meta.Nodes = %d, want %d", m.Nodes, catalogNodes)
			}
			if m.C <= 0 || m.C >= 1 || m.Eps <= 0 {
				t.Errorf("Meta did not surface guarantee parameters: C=%v Eps=%v", m.C, m.Eps)
			}
		})
	}
}
