package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sling"
	"sling/internal/rng"
)

// Direct-index reference answers for asserting HTTP responses. The
// facade API is context-aware and error-uniform; tests use background
// contexts and fail fast on errors.
func pairScore(t *testing.T, ix *sling.Index, u, v sling.NodeID) float64 {
	t.Helper()
	s, err := ix.SimRank(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sourceVec(t *testing.T, ix *sling.Index, u sling.NodeID) []float64 {
	t.Helper()
	row, err := ix.SingleSource(context.Background(), u, nil)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func topK(t *testing.T, ix *sling.Index, u sling.NodeID, k int) []sling.Scored {
	t.Helper()
	top, err := ix.TopK(context.Background(), u, k)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func sourceTop(t *testing.T, ix *sling.Index, u sling.NodeID, limit int) []sling.Scored {
	t.Helper()
	top, err := ix.SourceTop(context.Background(), u, limit)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func testServer(t *testing.T, labels []int64) (*Server, *sling.Index) {
	t.Helper()
	r := rng.New(5)
	n := 40
	b := sling.NewGraphBuilder(n)
	for i := 0; i < 200; i++ {
		b.AddEdge(sling.NodeID(r.Intn(n)), sling.NodeID(r.Intn(n)))
	}
	ix, err := sling.Build(b.Build(), sling.WithEps(0.08), sling.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewQuerier(ix, labels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s, ix
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil && rec.Code == http.StatusOK {
		t.Fatalf("bad JSON from %s: %v (%q)", path, err, rec.Body.String())
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
}

func TestSimRankEndpoint(t *testing.T) {
	s, ix := testServer(t, nil)
	rec, body := get(t, s, "/simrank?u=3&v=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	want := pairScore(t, ix, 3, 7)
	if got := body["score"].(float64); got != want {
		t.Fatalf("score %v, want %v", got, want)
	}
	if body["u"].(float64) != 3 || body["v"].(float64) != 7 {
		t.Fatalf("echoed nodes wrong: %v", body)
	}
}

func TestSimRankBadParams(t *testing.T) {
	s, _ := testServer(t, nil)
	for _, path := range []string{
		"/simrank",           // missing both
		"/simrank?u=3",       // missing v
		"/simrank?u=abc&v=1", // junk
		"/simrank?u=999&v=1", // out of range
		"/simrank?u=-1&v=1",  // negative
	} {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, rec.Code)
		}
		if body["error"] == "" {
			t.Fatalf("%s: no error message", path)
		}
	}
}

func TestSourceEndpoint(t *testing.T) {
	s, ix := testServer(t, nil)
	rec, body := get(t, s, "/source?u=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	scores := body["scores"].([]interface{})
	if len(scores) != ix.Graph().NumNodes() {
		t.Fatalf("got %d scores", len(scores))
	}
	want := sourceVec(t, ix, 5)
	first := scores[0].(map[string]interface{})
	if first["score"].(float64) != want[0] {
		t.Fatalf("score[0] mismatch")
	}
}

func TestSourceLimit(t *testing.T) {
	s, _ := testServer(t, nil)
	_, body := get(t, s, "/source?u=5&limit=3")
	if got := len(body["scores"].([]interface{})); got != 3 {
		t.Fatalf("limit ignored: %d scores", got)
	}
	rec, _ := get(t, s, "/source?u=5&limit=-2")
	if rec.Code != http.StatusBadRequest {
		t.Fatal("negative limit accepted")
	}
}

func TestTopKEndpoint(t *testing.T) {
	s, ix := testServer(t, nil)
	rec, body := get(t, s, "/topk?u=2&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	results := body["results"].([]interface{})
	if len(results) > 5 {
		t.Fatalf("k ignored: %d results", len(results))
	}
	top := topK(t, ix, 2, 5)
	if len(results) != len(top) {
		t.Fatalf("result count %d vs %d", len(results), len(top))
	}
	for i, raw := range results {
		r := raw.(map[string]interface{})
		if int64(r["node"].(float64)) != int64(top[i].Node) {
			t.Fatalf("result %d node mismatch", i)
		}
	}
	if rec, _ := get(t, s, "/topk?u=2&k=0"); rec.Code != http.StatusBadRequest {
		t.Fatal("k=0 accepted")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, ix := testServer(t, nil)
	rec, body := get(t, s, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if int(body["nodes"].(float64)) != ix.Graph().NumNodes() {
		t.Fatalf("stats nodes wrong: %v", body["nodes"])
	}
	if body["error_bound"].(float64) != ix.ErrorBound() {
		t.Fatal("stats error bound wrong")
	}
}

func TestLabelMapping(t *testing.T) {
	labels := make([]int64, 40)
	for i := range labels {
		labels[i] = int64(1000 + i*10) // external labels 1000, 1010, ...
	}
	s, ix := testServer(t, labels)
	rec, body := get(t, s, "/simrank?u=1030&v=1070")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got, want := body["score"].(float64), pairScore(t, ix, 3, 7); got != want {
		t.Fatalf("label-mapped score %v, want %v", got, want)
	}
	if body["u"].(float64) != 1030 {
		t.Fatal("response not in external labels")
	}
	// Unknown label must 400.
	if rec, _ := get(t, s, "/simrank?u=1035&v=1070"); rec.Code != http.StatusBadRequest {
		t.Fatal("unknown label accepted")
	}
}

// The /simrank, /topk and /source bodies are encoded from structs; they
// must be byte for byte what encoding the same answer as a map gave,
// under label mapping, for empty and non-empty score lists alike.
func TestQueryResponsesMatchMapEncoding(t *testing.T) {
	labels := make([]int64, 40)
	for i := range labels {
		labels[i] = int64(1000 + i*10)
	}
	s, ix := testServer(t, labels)
	scored := func(top []sling.Scored) []ScoredNode {
		out := make([]ScoredNode, len(top))
		for i, e := range top {
			out[i] = ScoredNode{Node: labels[e.Node], Score: e.Score}
		}
		return out
	}
	vec := sourceVec(t, ix, 3)
	full := make([]ScoredNode, len(vec))
	for v, sc := range vec {
		full[v] = ScoredNode{Node: labels[v], Score: sc}
	}
	cases := []struct {
		path string
		want map[string]interface{}
	}{
		{"/simrank?u=1030&v=1070", map[string]interface{}{"u": labels[3], "v": labels[7], "score": pairScore(t, ix, 3, 7)}},
		{"/simrank?u=1030&v=1030", map[string]interface{}{"u": labels[3], "v": labels[3], "score": pairScore(t, ix, 3, 3)}},
		{"/topk?u=1030&k=5", map[string]interface{}{"u": labels[3], "results": scored(topK(t, ix, 3, 5))}},
		{"/topk?u=1030", map[string]interface{}{"u": labels[3], "results": scored(topK(t, ix, 3, 10))}},
		{"/source?u=1030&limit=4", map[string]interface{}{"u": labels[3], "scores": scored(sourceTop(t, ix, 3, 4))}},
		{"/source?u=1030&limit=0", map[string]interface{}{"u": labels[3], "scores": []ScoredNode{}}},
		{"/source?u=1030", map[string]interface{}{"u": labels[3], "scores": full}},
	}
	for _, c := range cases {
		rec, _ := get(t, s, c.path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, rec.Code, rec.Body.String())
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.want); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != want.String() {
			t.Fatalf("%s: body\n%s\nwant the map encoding\n%s", c.path, got, want.String())
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	s, ix := testServer(t, nil)
	want := pairScore(t, ix, 1, 2)
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req := httptest.NewRequest(http.MethodGet, "/simrank?u=1&v=2", nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				var body map[string]interface{}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					fail <- "bad json"
					return
				}
				if body["score"].(float64) != want {
					fail <- "score drift under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	if msg, bad := <-fail; bad {
		t.Fatal(msg)
	}
}

func postBatch(t *testing.T, s *Server, body string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil && rec.Code == http.StatusOK {
		t.Fatalf("bad JSON from /batch: %v (%q)", err, rec.Body.String())
	}
	return rec, out
}

func TestSourceLimitReturnsTopScores(t *testing.T) {
	s, ix := testServer(t, nil)
	_, body := get(t, s, "/source?u=5&limit=4")
	scores := body["scores"].([]interface{})
	if len(scores) != 4 {
		t.Fatalf("limit ignored: %d scores", len(scores))
	}
	want := sourceTop(t, ix, 5, 4)
	for i, raw := range scores {
		e := raw.(map[string]interface{})
		if int64(e["node"].(float64)) != int64(want[i].Node) || e["score"].(float64) != want[i].Score {
			t.Fatalf("entry %d = %v, want %+v", i, e, want[i])
		}
	}
	// Descending by score: the head must be the source itself (s(u,u)=1
	// dominates), not node 0 of an ID-order prefix.
	if int64(scores[0].(map[string]interface{})["node"].(float64)) != 5 {
		t.Fatal("limit prefix is not score-ordered")
	}
	for i := 1; i < len(scores); i++ {
		if scores[i].(map[string]interface{})["score"].(float64) > scores[i-1].(map[string]interface{})["score"].(float64) {
			t.Fatal("scores not descending")
		}
	}
}

func TestBatchHappyPath(t *testing.T) {
	s, ix := testServer(t, nil)
	rec, body := postBatch(t, s, `[
		{"op":"simrank","u":3,"v":7},
		{"op":"topk","u":2,"k":5},
		{"op":"source","u":5,"limit":3},
		{"op":"simrank","u":0,"v":0}
	]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	results := body["results"].([]interface{})
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	r0 := results[0].(map[string]interface{})
	if r0["score"].(float64) != pairScore(t, ix, 3, 7) {
		t.Fatalf("batch simrank %v != direct", r0["score"])
	}
	r1 := results[1].(map[string]interface{})
	top := topK(t, ix, 2, 5)
	got := r1["results"].([]interface{})
	if len(got) != len(top) {
		t.Fatalf("batch topk %d results, want %d", len(got), len(top))
	}
	for i := range got {
		e := got[i].(map[string]interface{})
		if int64(e["node"].(float64)) != int64(top[i].Node) || e["score"].(float64) != top[i].Score {
			t.Fatalf("batch topk entry %d mismatch", i)
		}
	}
	r2 := results[2].(map[string]interface{})
	if n := len(r2["scores"].([]interface{})); n != 3 {
		t.Fatalf("batch source returned %d scores", n)
	}
	r3 := results[3].(map[string]interface{})
	if r3["score"].(float64) != pairScore(t, ix, 0, 0) {
		t.Fatal("batch self simrank mismatch")
	}
}

func TestBatchMatchesSerialUnderConcurrentRequests(t *testing.T) {
	s, ix := testServer(t, nil)
	want := pairScore(t, ix, 1, 2)
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := httptest.NewRequest(http.MethodPost, "/batch",
					strings.NewReader(`[{"op":"simrank","u":1,"v":2},{"op":"topk","u":1,"k":3}]`))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				var body map[string]interface{}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					fail <- "bad batch json"
					return
				}
				results := body["results"].([]interface{})
				if results[0].(map[string]interface{})["score"].(float64) != want {
					fail <- "batch score drift under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	if msg, bad := <-fail; bad {
		t.Fatal(msg)
	}
}

func TestBatchErrors(t *testing.T) {
	s, ix := testServer(t, nil)

	// Non-POST method.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch status %d, want 405", rec.Code)
	}

	// Malformed JSON.
	if rec, _ := postBatch(t, s, `{"op":`); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d, want 400", rec.Code)
	}

	// Per-op failures answer 200 with error entries, not a failed request.
	rec2, body := postBatch(t, s, `[
		{"op":"simrank","u":3},
		{"op":"zap","u":3},
		{"op":"simrank","u":999,"v":1},
		{"op":"topk","u":1,"k":-2},
		{"op":"topk","u":1,"k":0},
		{"op":"source","u":1,"limit":-1}
	]`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec2.Code, rec2.Body.String())
	}
	for i, raw := range body["results"].([]interface{}) {
		if raw.(map[string]interface{})["error"] == nil {
			t.Fatalf("op %d did not report an error: %v", i, raw)
		}
	}

	// Oversized batches are rejected outright.
	small, err := NewQuerier(ix, nil, Config{MaxBatchOps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := postBatch(t, small, `[{"op":"simrank","u":1,"v":2},{"op":"simrank","u":1,"v":2},{"op":"simrank","u":1,"v":2}]`); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d, want 413", rec.Code)
	}

	// Oversized bodies are cut off before they are materialized: the
	// byte bound derived from MaxBatchOps rejects a huge body even when
	// it encodes few ops (here: kilobytes of leading whitespace).
	pad := strings.Repeat(" ", 8192) + `[{"op":"simrank","u":1,"v":2}]`
	if rec, _ := postBatch(t, small, pad); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", rec.Code)
	}
}

func TestBatchLabelMapping(t *testing.T) {
	labels := make([]int64, 40)
	for i := range labels {
		labels[i] = int64(1000 + i*10)
	}
	s, ix := testServer(t, labels)
	rec, body := postBatch(t, s, `[{"op":"simrank","u":1030,"v":1070},{"op":"simrank","u":1035,"v":1070}]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	results := body["results"].([]interface{})
	r0 := results[0].(map[string]interface{})
	if r0["score"].(float64) != pairScore(t, ix, 3, 7) {
		t.Fatal("label-mapped batch score mismatch")
	}
	if r0["u"].(float64) != 1030 {
		t.Fatal("batch response not in external labels")
	}
	if results[1].(map[string]interface{})["error"] == nil {
		t.Fatal("unknown label accepted in batch")
	}
}

// Non-GET methods on the GET endpoints must 405 with an Allow header,
// like /batch does for non-POST.
func TestGetEndpointsRejectOtherMethods(t *testing.T) {
	s, _ := testServer(t, nil)
	for _, path := range []string{"/simrank?u=1&v=2", "/source?u=1", "/topk?u=1&k=3", "/stats", "/healthz"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status %d, want 405", method, path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
				t.Fatalf("%s %s: Allow header %q", method, path, allow)
			}
		}
	}
}

// Duplicate labels would silently route one external label to the wrong
// node; the constructor must reject them.
func TestDuplicateLabelsRejected(t *testing.T) {
	_, ix := testServer(t, nil)
	labels := make([]int64, 40)
	for i := range labels {
		labels[i] = int64(1000 + i*10)
	}
	labels[7] = labels[3] // collide
	if _, err := NewQuerier(ix, labels, Config{}); err == nil {
		t.Fatal("duplicate labels accepted")
	}
	labels[7] = 1070
	if _, err := NewQuerier(ix, labels, Config{}); err != nil {
		t.Fatalf("distinct labels rejected: %v", err)
	}
}

// Score lists must always encode as JSON arrays, never null — clients
// iterate them without a null check.
func TestEmptyScoreListsEncodeAsArrays(t *testing.T) {
	s, _ := testServer(t, nil)
	rec, _ := get(t, s, "/source?u=5&limit=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"scores":[]`) {
		t.Fatalf("limit=0 scores not an empty array: %s", body)
	}
	rec2, _ := postBatch(t, s, `[{"op":"source","u":5,"limit":0}]`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("batch status %d", rec2.Code)
	}
	if body := rec2.Body.String(); !strings.Contains(body, `"scores":[]`) {
		t.Fatalf("batch limit=0 scores not an empty array: %s", body)
	}
}

// diskServer builds the same index testServer uses, saves it, and serves
// it disk-resident over positioned reads.
func diskServer(t *testing.T, labels []int64) (*Server, *Server, *sling.Index) {
	t.Helper()
	mem, ix := testServer(t, labels)
	path := t.TempDir() + "/index.sling"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	di, err := sling.OpenDisk(path, ix.Graph())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { di.Close() })
	disk, err := NewQuerier(di, labels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return disk, mem, ix
}

// Every endpoint served disk-resident must answer exactly like the
// in-memory server over the same index.
func TestDiskServerMatchesMemoryServer(t *testing.T) {
	disk, mem, _ := diskServer(t, nil)
	for _, path := range []string{
		"/simrank?u=3&v=7",
		"/source?u=5&limit=4",
		"/source?u=5",
		"/topk?u=2&k=5",
		"/source?u=5&limit=0",
	} {
		recD, _ := get(t, disk, path)
		recM, _ := get(t, mem, path)
		if recD.Code != http.StatusOK || recM.Code != http.StatusOK {
			t.Fatalf("%s: disk %d mem %d", path, recD.Code, recM.Code)
		}
		if recD.Body.String() != recM.Body.String() {
			t.Fatalf("%s: disk body %q != memory body %q", path, recD.Body.String(), recM.Body.String())
		}
	}
	body := `[{"op":"simrank","u":3,"v":7},{"op":"topk","u":2,"k":5},{"op":"source","u":5,"limit":3}]`
	recD, _ := postBatch(t, disk, body)
	recM, _ := postBatch(t, mem, body)
	if recD.Code != http.StatusOK {
		t.Fatalf("disk batch status %d", recD.Code)
	}
	if recD.Body.String() != recM.Body.String() {
		t.Fatalf("batch: disk %q != memory %q", recD.Body.String(), recM.Body.String())
	}
}

// Disk-mode /stats must report the serving mode and the on-disk entry
// count.
func TestDiskServerStats(t *testing.T) {
	disk, _, _ := diskServer(t, nil)
	get(t, disk, "/simrank?u=1&v=2")
	rec, body := get(t, disk, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body["mode"] != "disk" {
		t.Fatalf("mode = %v, want disk", body["mode"])
	}
	if body["entries"].(float64) == 0 {
		t.Fatal("stats entries missing")
	}
}

// Disk mode with label mapping end to end.
func TestDiskServerLabelMapping(t *testing.T) {
	labels := make([]int64, 40)
	for i := range labels {
		labels[i] = int64(1000 + i*10)
	}
	disk, _, ix := diskServer(t, labels)
	rec, body := get(t, disk, "/simrank?u=1030&v=1070")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got, want := body["score"].(float64), pairScore(t, ix, 3, 7); got != want {
		t.Fatalf("label-mapped disk score %v, want %v", got, want)
	}
	if body["u"].(float64) != 1030 {
		t.Fatal("disk response not in external labels")
	}
}
