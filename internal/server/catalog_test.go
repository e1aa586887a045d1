package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sling/internal/rng"
	"strings"
	"testing"

	"sling"
	"sling/internal/catalog"
)

// writeEdgeList writes a deterministic random directed edge list.
func writeEdgeList(t *testing.T, dir, name string, n, edges int, seed int64) string {
	t.Helper()
	rnd := rng.New(uint64(seed))
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, (i+1)%n)
	}
	for i := 0; i < edges; i++ {
		fmt.Fprintf(&sb, "%d %d\n", rnd.Intn(n), rnd.Intn(n))
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// catServer builds a three-graph catalog server — memory, disk, and
// dynamic backends — with a quota on the "quota" (memory) graph.
func catServer(t *testing.T, qps float64) (*Server, *catalog.Catalog, string) {
	t.Helper()
	dir := t.TempDir()
	memPath := writeEdgeList(t, dir, "mem.txt", 40, 200, 5)
	diskPath := writeEdgeList(t, dir, "disk.txt", 30, 120, 6)
	dynPath := writeEdgeList(t, dir, "dyn.txt", 25, 100, 7)

	// The disk entry needs a prebuilt SLIX file.
	g, _, err := sling.LoadEdgeListFile(diskPath, false)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sling.Build(g, sling.WithEps(0.1), sling.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	slix := filepath.Join(dir, "disk.slix")
	if err := ix.Save(slix); err != nil {
		t.Fatal(err)
	}
	ix.Close()

	m := catalog.Manifest{
		Graphs: []catalog.GraphSpec{
			{ID: "mem", Graph: memPath, Eps: 0.08, Seed: 7, MaxQPS: qps},
			// Mmap where the platform supports it: the catalog must route
			// the flag through to the zero-copy open path (and fall back
			// silently elsewhere).
			{ID: "disk", Graph: diskPath, Mode: "disk", Index: slix, Mmap: sling.MmapSupported()},
			{ID: "dyn", Graph: dynPath, Mode: "dynamic", Eps: 0.12, Seed: 13, Walks: 32},
		},
	}
	cat, err := catalog.New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	s, err := NewCatalog(cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s, cat, memPath
}

func TestCatalogRoutingMatchesDirectBackend(t *testing.T) {
	s, _, memPath := catServer(t, 0)

	// Directly built reference over the same file and build options.
	g, _, err := sling.LoadEdgeListFile(memPath, false)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sling.Build(g, sling.WithEps(0.08), sling.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	want, err := ix.SimRank(context.Background(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}

	rec, body := get(t, s, "/g/mem/simrank?u=3&v=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := body["score"].(float64); got != want {
		t.Fatalf("catalog score %v, want %v", got, want)
	}

	// The legacy un-prefixed path aliases the default (first) graph.
	recLegacy, _ := get(t, s, "/simrank?u=3&v=7")
	if recLegacy.Code != http.StatusOK {
		t.Fatalf("legacy path status %d", recLegacy.Code)
	}
	recG, _ := get(t, s, "/g/mem/simrank?u=3&v=7")
	if recLegacy.Body.String() != recG.Body.String() {
		t.Fatalf("legacy alias differs: %q vs %q", recLegacy.Body.String(), recG.Body.String())
	}

	// Unknown graph IDs answer 404.
	if rec, _ := get(t, s, "/g/nope/simrank?u=1&v=2"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown graph status %d, want 404", rec.Code)
	}
}

func TestCatalogGraphListing(t *testing.T) {
	s, _, _ := catServer(t, 0)
	rec, body := get(t, s, "/graphs")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body["default"] != "mem" {
		t.Fatalf("default = %v", body["default"])
	}
	graphs := body["graphs"].([]interface{})
	if len(graphs) != 3 {
		t.Fatalf("%d graphs listed", len(graphs))
	}
	first := graphs[0].(map[string]interface{})
	if first["id"] != "mem" || first["mode"] != "memory" {
		t.Fatalf("first entry %v", first)
	}
}

func TestCatalogPerGraphStats(t *testing.T) {
	s, _, _ := catServer(t, 0)
	for id, mode := range map[string]string{"mem": "memory", "disk": "disk", "dyn": "dynamic"} {
		rec, body := get(t, s, "/g/"+id+"/stats")
		if rec.Code != http.StatusOK {
			t.Fatalf("/g/%s/stats: %d", id, rec.Code)
		}
		if body["mode"] != mode {
			t.Fatalf("/g/%s/stats mode = %v, want %s", id, body["mode"], mode)
		}
	}
	// The catalog summary at /stats, golden-schema checked.
	rec, body := get(t, s, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d", rec.Code)
	}
	checkSchema(t, "/stats[catalog]", catalogStatsSchema, body)
	if body["mode"] != "catalog" || body["graphs"].(float64) != 3 {
		t.Fatalf("catalog stats %v", body)
	}
}

// catalogStatsSchema extends the golden /stats family for catalog mode.
var catalogStatsSchema = statsSchema{
	"mode":           "string",
	"graphs":         "number",
	"open_graphs":    "number",
	"resident_bytes": "number",
	"budget_bytes":   "number",
	"evictions":      "number",
	"throttled_ops":  "number",
	"requests":       "number",
	"default":        "string",
	"canceled_ops":   "number",
}

func TestCatalogQuota429(t *testing.T) {
	s, _, _ := catServer(t, 1) // 1 op/s, burst 1 on graph "mem"
	if rec, _ := get(t, s, "/g/mem/simrank?u=1&v=2"); rec.Code != http.StatusOK {
		t.Fatalf("first request status %d", rec.Code)
	}
	rec, body := get(t, s, "/g/mem/simrank?u=1&v=2")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q", ra)
	}
	if body["error"] == "" {
		t.Fatal("429 without error message")
	}
	// The rejection is visible in the catalog summary and metrics.
	_, st := get(t, s, "/stats")
	if st["throttled_ops"].(float64) < 1 {
		t.Fatalf("throttled_ops = %v", st["throttled_ops"])
	}
	// Unquoted graphs are unaffected.
	if rec, _ := get(t, s, "/g/disk/simrank?u=1&v=2"); rec.Code != http.StatusOK {
		t.Fatalf("unquoted graph status %d", rec.Code)
	}
	// A batch is charged per op: two ops cannot fit a 1-token bucket even
	// after it refills one token.
	recB, _ := postTo(t, s, "/g/mem/batch", `[{"op":"simrank","u":1,"v":2},{"op":"simrank","u":2,"v":3}]`)
	if recB.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch status %d, want 429", recB.Code)
	}
}

func postTo(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	return post(t, s, path, body)
}

func TestCatalogUpdateRouting(t *testing.T) {
	s, _, _ := catServer(t, 0)
	// Mutations on a non-dynamic graph answer 404.
	if rec, _ := post(t, s, "/g/mem/update", `[{"op":"add","from":0,"to":5}]`); rec.Code != http.StatusNotFound {
		t.Fatalf("update on memory graph status %d, want 404", rec.Code)
	}
	if rec, _ := post(t, s, "/g/mem/rebuild", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("rebuild on memory graph status %d, want 404", rec.Code)
	}
	// The dynamic graph takes updates and rebuilds through its route.
	rec, body := post(t, s, "/g/dyn/update", `[{"op":"remove","from":0,"to":1}]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("dyn update status %d: %s", rec.Code, rec.Body.String())
	}
	if body["results"].([]interface{})[0].(map[string]interface{})["applied"] != true {
		t.Fatalf("remove of ring edge not applied: %v", body)
	}
	rec, body = post(t, s, "/g/dyn/rebuild", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("dyn rebuild status %d", rec.Code)
	}
	if body["epoch"].(float64) != 2 {
		t.Fatalf("post-rebuild epoch %v", body["epoch"])
	}
}

func TestCatalogMetricsEndpoint(t *testing.T) {
	s, _, _ := catServer(t, 0)
	get(t, s, "/g/mem/simrank?u=1&v=2")
	get(t, s, "/g/dyn/topk?u=1&k=3")

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		catalog.MetricRequests + `{graph="mem"} 1`,
		catalog.MetricRequests + `{graph="dyn"} 1`,
		catalog.MetricLatency + `_count{graph="mem"} 1`,
		"# TYPE " + catalog.MetricLatency + " histogram",
		catalog.MetricOpenGraphs + " 2",
		MetricHTTPRequests + " ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCatalogEvictionUnderTraffic serves all three graphs under a
// budget that fits roughly one and checks traffic keeps answering 200
// while the catalog churns backends in and out.
func TestCatalogEvictionUnderTraffic(t *testing.T) {
	s, cat, _ := catServer(t, 0)
	// Size one graph, then rebuild the world with a budget below two.
	if rec, _ := get(t, s, "/g/mem/simrank?u=1&v=2"); rec.Code != http.StatusOK {
		t.Fatal("probe failed")
	}
	one := cat.Stats().ResidentBytes

	dir := t.TempDir()
	memPath := writeEdgeList(t, dir, "a.txt", 40, 200, 5)
	bPath := writeEdgeList(t, dir, "b.txt", 40, 200, 8)
	cPath := writeEdgeList(t, dir, "c.txt", 40, 200, 9)
	m := catalog.Manifest{
		MemoryBudgetBytes: one + one/2,
		Graphs: []catalog.GraphSpec{
			{ID: "a", Graph: memPath, Eps: 0.1, Seed: 1},
			{ID: "b", Graph: bPath, Eps: 0.1, Seed: 2},
			{ID: "c", Graph: cPath, Eps: 0.1, Seed: 3},
		},
	}
	cat2, err := catalog.New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	s2, err := NewCatalog(cat2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, id := range []string{"a", "b", "c"} {
			rec, _ := get(t, s2, "/g/"+id+"/simrank?u=1&v=2")
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d /g/%s: %d", round, id, rec.Code)
			}
		}
	}
	st := cat2.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under tight budget: %+v", st)
	}
}
