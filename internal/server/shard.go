package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"sling"
)

// Shard fragment endpoints: the wire form of sling.ShardBackend, which
// the sharded router (internal/shard) drives on remote shard servers.
// They are registered whenever the backend implements ShardBackend (the
// in-memory and disk indexes do), alongside the ordinary query routes:
//
//	GET  /shard/fragment?u=U -> {"node":U,"keys":[...],"vals":[...],"dvals":[...]}
//	POST /shard/source       -> {"scores":[...]} ([lo,hi) slice, raw node order)
//	POST /shard/top          -> {"results":[{"node":V,"score":S},...]}
//
// Unlike the public query routes, shard endpoints always speak dense
// node IDs: the routing manifest is written in dense ID space, and the
// router is the only intended client. Scores cross the wire as raw JSON
// float64 numbers, which round-trip bitwise.

// denseNode parses a shard-endpoint node parameter as a dense ID,
// guarding the 32-bit narrowing exactly like denseID's label-free path.
func denseNode(q string) (sling.NodeID, error) {
	raw, err := strconv.ParseInt(q, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad node %q", q)
	}
	if raw < 0 || raw > math.MaxInt32 {
		return 0, fmt.Errorf("%w: node %d is not a valid node ID", sling.ErrNodeRange, raw)
	}
	return sling.NodeID(raw), nil
}

func (t *tenant) handleShardFragment(w http.ResponseWriter, r *http.Request) {
	u, err := denseNode(r.URL.Query().Get("u"))
	if err != nil {
		httpErrorFor(w, http.StatusBadRequest, err)
		return
	}
	if !t.allow(w, 1) {
		return
	}
	f, err := t.sb.Fragment(r.Context(), u)
	if err != nil {
		t.queryError(w, r, err)
		return
	}
	writeJSON(w, f)
}

// shardSliceReq is the POST /shard/source and /shard/top request body.
type shardSliceReq struct {
	Fragment *sling.Fragment `json:"fragment"`
	K        int             `json:"k"`
	Skip     int64           `json:"skip"`
	Lo       int             `json:"lo"`
	Hi       int             `json:"hi"`
}

func (t *tenant) shardSliceBody(w http.ResponseWriter, r *http.Request) (*shardSliceReq, bool) {
	var req shardSliceReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad shard request: %v", err))
		return nil, false
	}
	if req.Fragment == nil {
		httpError(w, http.StatusBadRequest, "missing fragment")
		return nil, false
	}
	return &req, true
}

// sliceError answers a failed /shard/source or /shard/top call. The
// slices propagate over memory-resident metadata and fetch nothing, so
// apart from the request's own context every failure is a rejection of
// the request itself — bad bounds or a malformed fragment — and is a
// 400.
func (t *tenant) sliceError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.queryError(w, r, err)
		return
	}
	httpErrorFor(w, http.StatusBadRequest, err)
}

func (t *tenant) handleShardSource(w http.ResponseWriter, r *http.Request) {
	req, ok := t.shardSliceBody(w, r)
	if !ok {
		return
	}
	if !t.allow(w, 1) {
		return
	}
	scores, err := t.sb.SourceSlice(r.Context(), req.Fragment, req.Lo, req.Hi)
	if err != nil {
		t.sliceError(w, r, err)
		return
	}
	if scores == nil {
		scores = []float64{}
	}
	writeJSON(w, map[string]interface{}{"scores": scores})
}

func (t *tenant) handleShardTop(w http.ResponseWriter, r *http.Request) {
	req, ok := t.shardSliceBody(w, r)
	if !ok {
		return
	}
	if !t.allow(w, 1) {
		return
	}
	top, err := t.sb.TopSlice(r.Context(), req.Fragment, req.K, sling.NodeID(req.Skip), req.Lo, req.Hi)
	if err != nil {
		t.sliceError(w, r, err)
		return
	}
	out := make([]ScoredNode, len(top))
	for i, e := range top {
		out[i] = ScoredNode{Node: int64(e.Node), Score: e.Score}
	}
	writeJSON(w, map[string]interface{}{"results": out})
}
