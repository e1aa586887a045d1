// Package server exposes SLING indexes over HTTP with a small JSON API,
// the deployment shape a similarity service would actually run: build
// (or load) each index once, then serve single-pair, single-source,
// top-k and batched queries concurrently over pooled scratch.
//
// Every handler is written against the one sling.Querier interface, so
// NewQuerier serves an index that is fully in-memory, disk-resident
// (Section 5.4 of the paper), sharded, or any future backend: the query
// surface is identical, only the backend differs. NewDynamic serves an
// updatable index and adds the mutation endpoints.
//
// NewCatalog serves many graphs from one process through a
// catalog.Catalog: requests route by graph ID under /g/{id}/..., the
// catalog lazily opens backends, evicts least-recently-used graphs
// under a global memory budget, and enforces per-graph operation quotas
// (rejections answer 429 with a Retry-After header). The un-prefixed
// legacy paths keep working as aliases for the catalog's default graph,
// so a single-graph client needs no changes when the deployment grows
// multi-tenant.
//
// Request contexts are threaded into every query, so a client that
// disconnects mid-/batch stops burning CPU between per-source units;
// such aborts are logged, dropped without a response (nginx's 499
// convention), and counted in /stats as canceled_ops.
//
// Endpoints (each also under /g/{id}/ in catalog mode):
//
//	GET  /simrank?u=U&v=V          -> {"u":U,"v":V,"score":S}
//	GET  /source?u=U[&limit=L]     -> {"u":U,"scores":[{"node":V,"score":S},...]}
//	GET  /topk?u=U&k=K             -> {"u":U,"results":[{"node":V,"score":S},...]}
//	POST /batch                    -> {"results":[...]} (see batch.go)
//	POST /update                   -> dynamic backends only (see update.go)
//	POST /rebuild                  -> dynamic backends only (see update.go)
//	POST /snapshot                 -> durable dynamic backends only (see update.go)
//	GET  /stats                    -> index and graph statistics
//	GET  /metrics                  -> Prometheus text exposition
//	GET  /graphs                   -> catalog mode: the graph listing
//	GET  /healthz                  -> 200 ok
//
// Non-GET methods on the GET endpoints are rejected with 405 and an
// Allow header, mirroring what /batch does for non-POST.
//
// /source without a limit returns the full single-source score vector in
// node order. With limit=L it returns the L highest-scoring nodes (u
// itself included, typically first with s(u,u)=1) in descending score
// order, ties broken by ascending node ID — the same deterministic order
// /topk uses, selected with the same heap, not an arbitrary ID-order
// prefix of the vector. Score lists are always JSON arrays, never null.
//
// Node parameters use the graph's original labels when the graph has a
// label mapping, dense IDs otherwise. Node IDs the backend rejects
// (sling.ErrNodeRange) answer 400, like parse failures. Validation is
// the backend's: the server resolves labels and guards 32-bit
// narrowing, then lets the Querier reject out-of-range IDs, so the
// served node count is never cached outside the backend that owns it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"sling"
	"sling/internal/catalog"
	"sling/internal/metrics"
)

// Config tunes a Server beyond its defaults.
type Config struct {
	// BatchWorkers bounds how many operations of one POST /batch request
	// run concurrently. Defaults to runtime.GOMAXPROCS(0).
	BatchWorkers int
	// MaxBatchOps caps the number of operations accepted in one POST
	// /batch request; larger requests are rejected with 413. Default 4096.
	// Catalog graphs may lower it per graph via their manifest entry.
	MaxBatchOps int
	// Registry receives the server's instruments. Defaults to a fresh
	// registry (catalog mode defaults to the catalog's).
	Registry *metrics.Registry
}

// DefaultMaxBatchOps is the default cap on operations per /batch request.
const DefaultMaxBatchOps = 4096

// Server instrument names, shared with the exposition golden test.
const (
	MetricHTTPRequests = "sling_http_requests_total"
	MetricHTTPErrors   = "sling_http_errors_total"
	MetricCanceledOps  = "sling_canceled_ops_total"
	MetricHTTPLatency  = "sling_http_request_seconds"
)

// Server routes HTTP queries to SLING indexes through the sling.Querier
// interface — one fixed backend in single-graph mode, a catalog of
// lazily opened backends in catalog mode. It is safe for concurrent
// use; the underlying indexes pool query scratch internally.
type Server struct {
	def *tenant          // single-graph mode; nil in catalog mode
	cat *catalog.Catalog // catalog mode; nil otherwise
	mux *http.ServeMux
	cfg Config
	reg *metrics.Registry

	// Typed instruments replacing the former ad-hoc counters: the
	// registry is the one source of truth, and /stats reads these values
	// instead of keeping parallel state.
	requests    *metrics.Counter
	httpErrors  *metrics.Counter
	canceledOps *metrics.Counter
	latency     *metrics.Histogram
}

// tenant is the serving view of one graph for one request: the backend,
// its label mapping, and (in catalog mode) the lease and quota handle.
// Single-graph servers build one tenant at construction; catalog
// servers build one per request around a catalog.Handle.
type tenant struct {
	s           *Server
	q           sling.Querier
	dyn         *sling.DynamicIndex    // non-nil for updatable backends
	sb          sling.ShardBackend     // non-nil when q serves shard fragments
	labels      []int64                // dense ID -> original label; nil = identity
	byLbl       map[int64]sling.NodeID // original label -> dense ID
	h           *catalog.Handle        // catalog mode only
	maxBatchOps int
}

// NewDynamic creates a Server over an updatable index. The query surface
// is the same as the other modes; additionally POST /update applies edge
// operations, POST /rebuild swaps in a freshly built epoch, POST
// /snapshot persists the state of a durable index, and /stats reports
// epoch, staleness-frontier, rebuild-state, and durability counters.
func NewDynamic(dx *sling.DynamicIndex, labels []int64, cfg Config) (*Server, error) {
	return newServer(dx, dx, labels, cfg)
}

// NewQuerier creates a Server over any sling.Querier — an in-memory,
// disk-resident, or sharded index, or a future backend (replicated,
// remote) that plugs in without the server growing a new mode. labels
// may be nil, in which case node parameters are dense IDs in
// [0, NumNodes); duplicate labels are rejected, since a mapping that
// silently kept the last duplicate would route queries for the earlier
// node to the wrong one. Zero Config fields take their defaults. /stats
// reports a typed view for the package's own index types and the
// backend's QuerierMeta otherwise.
func NewQuerier(q sling.Querier, labels []int64, cfg Config) (*Server, error) {
	return newServer(q, nil, labels, cfg)
}

// fillDefaults normalizes a Config in place.
func (cfg *Config) fillDefaults() {
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatchOps <= 0 {
		cfg.MaxBatchOps = DefaultMaxBatchOps
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
}

// instruments registers the server-level instruments on s.reg.
func (s *Server) instruments() {
	s.requests = s.reg.Counter(MetricHTTPRequests, "HTTP requests served")
	s.httpErrors = s.reg.Counter(MetricHTTPErrors, "HTTP responses with status >= 400")
	s.canceledOps = s.reg.Counter(MetricCanceledOps, "operations dropped because the client abandoned the request")
	s.latency = s.reg.Histogram(MetricHTTPLatency, "HTTP request latency", nil)
}

// newTenant builds the fixed single-graph tenant, validating the label
// mapping.
func newTenant(s *Server, q sling.Querier, dyn *sling.DynamicIndex, labels []int64, maxBatchOps int) (*tenant, error) {
	t := &tenant{s: s, q: q, dyn: dyn, labels: labels, maxBatchOps: maxBatchOps}
	if sb, ok := q.(sling.ShardBackend); ok {
		t.sb = sb
	}
	if labels != nil {
		t.byLbl = make(map[int64]sling.NodeID, len(labels))
		for id, l := range labels {
			if dup, ok := t.byLbl[l]; ok {
				return nil, fmt.Errorf("server: duplicate label %d (nodes %d and %d)", l, dup, id)
			}
			t.byLbl[l] = sling.NodeID(id)
		}
	}
	return t, nil
}

func newServer(q sling.Querier, dyn *sling.DynamicIndex, labels []int64, cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{cfg: cfg, reg: cfg.Registry}
	s.instruments()
	registerBackendGauges(s.reg, q)
	t, err := newTenant(s, q, dyn, labels, cfg.MaxBatchOps)
	if err != nil {
		return nil, err
	}
	s.def = t

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/simrank", s.getOnly(s.fixed((*tenant).handleSimRank)))
	s.mux.HandleFunc("/source", s.getOnly(s.fixed((*tenant).handleSource)))
	s.mux.HandleFunc("/topk", s.getOnly(s.fixed((*tenant).handleTopK)))
	s.mux.HandleFunc("/batch", s.postOnly(s.fixed((*tenant).handleBatch)))
	s.mux.HandleFunc("/stats", s.getOnly(s.fixed((*tenant).handleStats)))
	if dyn != nil {
		s.mux.HandleFunc("/update", s.postOnly(s.fixed((*tenant).handleUpdate)))
		s.mux.HandleFunc("/rebuild", s.postOnly(s.fixed((*tenant).handleRebuild)))
		s.mux.HandleFunc("/snapshot", s.postOnly(s.fixed((*tenant).handleSnapshot)))
	}
	if t.sb != nil {
		s.mux.HandleFunc("/shard/fragment", s.getOnly(s.fixed((*tenant).handleShardFragment)))
		s.mux.HandleFunc("/shard/source", s.postOnly(s.fixed((*tenant).handleShardSource)))
		s.mux.HandleFunc("/shard/top", s.postOnly(s.fixed((*tenant).handleShardTop)))
	}
	s.commonRoutes()
	return s, nil
}

// fixed adapts a tenant handler to the single-graph tenant.
func (s *Server) fixed(h func(*tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { h(s.def, w, r) }
}

// commonRoutes registers the mode-independent endpoints.
func (s *Server) commonRoutes() {
	s.mux.Handle("/metrics", s.getOnly(s.reg.Handler().ServeHTTP))
	s.mux.HandleFunc("/healthz", s.getOnly(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
}

// getOnly wraps a handler to reject non-GET/HEAD methods with 405 and an
// Allow header, like /batch does for non-POST.
func (s *Server) getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		h(w, r)
	}
}

// postOnly is getOnly's POST counterpart, shared by /batch, /update, and
// /rebuild.
func (s *Server) postOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		h(w, r)
	}
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler, recording the server-level request
// count, latency, and error count around the routed handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.latency.ObserveSince(start)
	if sw.code >= 400 {
		s.httpErrors.Inc()
	}
}

// Registry returns the server's metrics registry (the catalog's in
// catalog mode), the same instruments GET /metrics exposes.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// label converts a dense ID back to the external label.
func (t *tenant) label(id sling.NodeID) int64 {
	if t.labels == nil {
		return int64(id)
	}
	return t.labels[id]
}

// denseID resolves a parsed int64 node parameter to a dense NodeID:
// label-map lookup when the graph has one, 32-bit narrowing otherwise.
// Range validation belongs to the Querier — every backend rejects
// out-of-range IDs with sling.ErrNodeRange and the error paths map that
// to 400 — but the narrowing guard must stay here: NodeID is 32-bit, so
// an unchecked int64 like 2^32+5 would silently truncate to a
// valid-looking node before the backend could reject it.
func (t *tenant) denseID(raw int64) (sling.NodeID, error) {
	if t.byLbl != nil {
		id, ok := t.byLbl[raw]
		if !ok {
			return 0, fmt.Errorf("%w: node %d not in graph", sling.ErrNodeRange, raw)
		}
		return id, nil
	}
	if raw < 0 || raw > math.MaxInt32 {
		return 0, fmt.Errorf("%w: node %d is not a valid node ID", sling.ErrNodeRange, raw)
	}
	return sling.NodeID(raw), nil
}

// node parses a node parameter into a dense ID.
func (t *tenant) node(q string) (sling.NodeID, error) {
	raw, err := strconv.ParseInt(q, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad node %q", q)
	}
	return t.denseID(raw)
}

// allow charges n operations against the tenant's quota (catalog mode
// only) and counts them as served. On rejection it writes the 429 with
// a Retry-After header and reports false.
func (t *tenant) allow(w http.ResponseWriter, n int) bool {
	if t.h == nil {
		return true
	}
	if err := t.h.AllowOps(n); err != nil {
		var te *catalog.ThrottleError
		if errors.As(err, &te) {
			secs := int(math.Ceil(te.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		httpError(w, http.StatusTooManyRequests, err.Error())
		return false
	}
	t.h.CountOps(n)
	return true
}

// queryError maps a Querier error to the HTTP response: a cancelled
// request is logged, counted, and dropped without a response (the
// client is gone — nginx's 499); a deadline expiry answers 504 (the
// client may still be connected behind a server-side timeout, so it
// must not see a bogus empty 200); node-range errors answer 400 like
// parameter parse failures; anything else is a 500.
func (t *tenant) queryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		t.s.canceledOps.Inc()
		log.Printf("server: %s %s abandoned mid-query (%v)", r.Method, r.URL.Path, err)
	case errors.Is(err, context.DeadlineExceeded):
		t.s.canceledOps.Inc()
		httpError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, sling.ErrNodeRange):
		httpErrorFor(w, http.StatusBadRequest, err)
	default:
		if t.h != nil {
			t.h.CountError()
		}
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// httpErrorFor is httpError with a machine-readable "code" field for
// errors clients dispatch on: node-range failures carry "node_range", so
// an HTTP client can reconstruct sling.ErrNodeRange without parsing the
// message.
func httpErrorFor(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	if errors.Is(err, sling.ErrNodeRange) {
		body["code"] = "node_range"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for an HTTP error; the connection is likely gone.
		return
	}
}

// ScoredNode is one (node, score) result in JSON responses.
type ScoredNode struct {
	Node  int64   `json:"node"`
	Score float64 `json:"score"`
}

// The /simrank, /topk and /source bodies. Fields are declared in sorted
// key order, so encoding/json writes the bytes a map of the same keys
// would, without sorting keys or boxing values per response.
type simRankResponse struct {
	Score float64 `json:"score"`
	U     int64   `json:"u"`
	V     int64   `json:"v"`
}

type topKResponse struct {
	Results []ScoredNode `json:"results"`
	U       int64        `json:"u"`
}

type sourceResponse struct {
	Scores []ScoredNode `json:"scores"`
	U      int64        `json:"u"`
}

func (t *tenant) handleSimRank(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, err := t.node(q.Get("u"))
	if err != nil {
		httpErrorFor(w, http.StatusBadRequest, err)
		return
	}
	v, err := t.node(q.Get("v"))
	if err != nil {
		httpErrorFor(w, http.StatusBadRequest, err)
		return
	}
	if !t.allow(w, 1) {
		return
	}
	score, err := t.q.SimRank(r.Context(), u, v)
	if err != nil {
		t.queryError(w, r, err)
		return
	}
	writeJSON(w, simRankResponse{Score: score, U: t.label(u), V: t.label(v)})
}

func (t *tenant) handleSource(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, err := t.node(q.Get("u"))
	if err != nil {
		httpErrorFor(w, http.StatusBadRequest, err)
		return
	}
	limit := -1
	if raw := q.Get("limit"); raw != "" {
		l, err := strconv.Atoi(raw)
		if err != nil || l < 0 {
			httpError(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = l
	}
	if !t.allow(w, 1) {
		return
	}
	scores, err := t.sourceScores(r.Context(), u, limit)
	if err != nil {
		t.queryError(w, r, err)
		return
	}
	writeJSON(w, sourceResponse{Scores: scores, U: t.label(u)})
}

// sourceScores computes the /source payload: the full score vector in
// node order when limit is negative, otherwise the limit highest-scoring
// nodes in descending score order (ties by ascending node ID), selected
// with the size-limit heap rather than a full sort. The result is never
// nil, so it always encodes as a JSON array.
func (t *tenant) sourceScores(ctx context.Context, u sling.NodeID, limit int) ([]ScoredNode, error) {
	if limit < 0 {
		scores, err := t.q.SingleSource(ctx, u, nil)
		if err != nil {
			return nil, err
		}
		out := make([]ScoredNode, len(scores))
		for v, sc := range scores {
			out[v] = ScoredNode{Node: t.label(sling.NodeID(v)), Score: sc}
		}
		return out, nil
	}
	top, err := t.q.SourceTop(ctx, u, limit)
	if err != nil {
		return nil, err
	}
	return t.scored(top), nil
}

// scored converts top-k results to response entries in external labels.
// The result is never nil (a nil slice would encode as JSON null).
func (t *tenant) scored(top []sling.Scored) []ScoredNode {
	out := make([]ScoredNode, len(top))
	for i, e := range top {
		out[i] = ScoredNode{Node: t.label(e.Node), Score: e.Score}
	}
	return out
}

func (t *tenant) handleTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, err := t.node(q.Get("u"))
	if err != nil {
		httpErrorFor(w, http.StatusBadRequest, err)
		return
	}
	k := 10
	if raw := q.Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k < 1 {
			httpError(w, http.StatusBadRequest, "bad k")
			return
		}
	}
	if !t.allow(w, 1) {
		return
	}
	top, err := t.q.TopK(r.Context(), u, k)
	if err != nil {
		t.queryError(w, r, err)
		return
	}
	writeJSON(w, topKResponse{Results: t.scored(top), U: t.label(u)})
}

func (t *tenant) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statsView(t.q, t.s.canceledOps.Value()))
}
