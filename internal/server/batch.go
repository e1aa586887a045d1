package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"

	"sling"
	"sling/internal/core"
)

// POST /batch executes a list of query operations in one round trip,
// fanned across a bounded worker pool (Config.BatchWorkers), the shape a
// high-throughput client wants: one request amortizes connection and
// JSON overhead over many queries, and the server keeps every core busy
// without unbounded goroutine fan-out.
//
// Request body: a JSON array of operations
//
//	[{"op":"simrank","u":U,"v":V},
//	 {"op":"source","u":U,"limit":L},   // limit optional
//	 {"op":"topk","u":U,"k":K}, ...]    // k defaults to 10
//
// Response: {"results":[...]} with one entry per operation, in request
// order, each either the same JSON object the corresponding GET endpoint
// returns or {"op":...,"error":"..."}. Per-operation failures do not fail
// the request; malformed JSON, a non-POST method, or more than
// the op cap do (400/405/413). In catalog mode a batch of N operations
// costs N quota tokens up front; an over-quota batch answers 429 with a
// Retry-After header and runs nothing.

// BatchOp is one operation in a POST /batch request. U and V are node
// labels (original labels when the graph has a label mapping, dense IDs
// otherwise); pointers distinguish "absent" from label 0.
type BatchOp struct {
	Op    string `json:"op"`
	U     *int64 `json:"u,omitempty"`
	V     *int64 `json:"v,omitempty"`
	K     *int   `json:"k,omitempty"`
	Limit *int   `json:"limit,omitempty"`
}

// decodeOps bounds and decodes a JSON op array for handleBatch and
// handleUpdate, keeping their guards identical by construction: the body
// is cut off past maxOps·256+4096 bytes (256 bytes comfortably covers
// any legitimate op, so op count bounds memory too) with a 413,
// malformed JSON and unknown fields answer 400, and more than maxOps
// operations answer 413. ok=false means the error response was already
// written.
func decodeOps[T any](t *tenant, w http.ResponseWriter, r *http.Request, what string) (ops []T, ok bool) {
	maxBytes := int64(t.maxBatchOps)*256 + 4096
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ops); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("%s body exceeds %d bytes", what, maxBytes))
			return nil, false
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad %s body: %v", what, err))
		return nil, false
	}
	if len(ops) > t.maxBatchOps {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s of %d ops exceeds limit %d", what, len(ops), t.maxBatchOps))
		return nil, false
	}
	return ops, true
}

func (t *tenant) handleBatch(w http.ResponseWriter, r *http.Request) {
	ops, ok := decodeOps[BatchOp](t, w, r, "batch")
	if !ok {
		return
	}
	if !t.allow(w, len(ops)) {
		return
	}

	ctx := r.Context()
	results := make([]interface{}, len(ops))
	// runOp never fails, so ForEach stops only when ctx does; the check
	// below accounts for the ops it never ran.
	_ = core.ForEach(ctx, len(ops), t.s.cfg.BatchWorkers, nil, func(i int, _ struct{}) error {
		results[i] = t.runOp(ctx, ops[i])
		return nil
	})
	if err := ctx.Err(); err != nil {
		// Account the operations that never ran, then pick the response:
		// a cancelled context means the client is gone — log and drop
		// (nginx's 499 convention); an expired deadline may come from
		// server-side timeout middleware with the client still listening,
		// so it gets a real 504 instead of a bogus empty 200.
		dropped := 0
		for _, res := range results {
			if res == nil {
				dropped++
			}
		}
		t.s.canceledOps.Add(uint64(dropped))
		if errors.Is(err, context.DeadlineExceeded) {
			httpError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("batch deadline exceeded with %d of %d ops pending", dropped, len(ops)))
			return
		}
		log.Printf("server: POST /batch abandoned with %d of %d ops pending (%v)",
			dropped, len(ops), err)
		return
	}
	writeJSON(w, map[string]interface{}{"results": results})
}

// runOp executes one batch operation, returning either the op's response
// object or an error object mirroring the single-query endpoints. ctx is
// threaded into the Querier so a disconnected client stops the fan-out
// inside multi-source work too.
func (t *tenant) runOp(ctx context.Context, op BatchOp) interface{} {
	fail := func(err error) interface{} {
		entry := map[string]interface{}{"op": op.Op, "error": err.Error()}
		if errors.Is(err, sling.ErrNodeRange) {
			entry["code"] = "node_range"
		}
		return entry
	}
	u, err := t.opNode(op.U, "u")
	if err != nil {
		return fail(err)
	}
	switch op.Op {
	case "simrank":
		v, err := t.opNode(op.V, "v")
		if err != nil {
			return fail(err)
		}
		score, err := t.q.SimRank(ctx, u, v)
		if err != nil {
			return fail(err)
		}
		return map[string]interface{}{
			"op": op.Op, "u": t.label(u), "v": t.label(v),
			"score": score,
		}
	case "source":
		limit := -1
		if op.Limit != nil {
			if *op.Limit < 0 {
				return fail(fmt.Errorf("bad limit %d", *op.Limit))
			}
			limit = *op.Limit
		}
		scores, err := t.sourceScores(ctx, u, limit)
		if err != nil {
			return fail(err)
		}
		return map[string]interface{}{
			"op": op.Op, "u": t.label(u),
			"scores": scores,
		}
	case "topk":
		k := 10
		if op.K != nil {
			// Mirror GET /topk: an explicit k must be >= 1.
			if *op.K < 1 {
				return fail(fmt.Errorf("bad k %d", *op.K))
			}
			k = *op.K
		}
		top, err := t.q.TopK(ctx, u, k)
		if err != nil {
			return fail(err)
		}
		return map[string]interface{}{
			"op": op.Op, "u": t.label(u),
			"results": t.scored(top),
		}
	default:
		return fail(fmt.Errorf("unknown op %q (want simrank|source|topk)", op.Op))
	}
}

// opNode resolves a batch node parameter through the same label
// resolution tenant.node applies to query strings.
func (t *tenant) opNode(raw *int64, name string) (sling.NodeID, error) {
	if raw == nil {
		return 0, fmt.Errorf("missing node %q", name)
	}
	return t.denseID(*raw)
}
