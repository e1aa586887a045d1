package httpclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"sling"
)

// The sling.Querier implementation over the wire, plus the shard
// fragment endpoints. Each method maps onto one server route.

var _ sling.Querier = (*Client)(nil)

type scoredNode struct {
	Node  int64   `json:"node"`
	Score float64 `json:"score"`
}

func toScored(in []scoredNode) []sling.Scored {
	out := make([]sling.Scored, len(in))
	for i, e := range in {
		out[i] = sling.Scored{Node: sling.NodeID(e.Node), Score: e.Score}
	}
	return out
}

// Meta reports the wire backend: identity from construction, guarantee
// parameters scraped from /stats (zero if the server hides them).
func (c *Client) Meta() sling.QuerierMeta {
	m := sling.QuerierMeta{Name: c.name, Nodes: c.n, Clamped: c.clamped}
	var stats struct {
		C     float64 `json:"decay_factor"`
		Eps   float64 `json:"error_bound"`
		Epoch uint64  `json:"epoch"`
	}
	if err := c.Do(context.Background(), http.MethodGet, "/stats", "", &stats); err == nil {
		m.C, m.Eps, m.Epoch = stats.C, stats.Eps, stats.Epoch
	}
	return m
}

func (c *Client) SimRank(ctx context.Context, u, v sling.NodeID) (float64, error) {
	var resp struct {
		Score float64 `json:"score"`
	}
	err := c.Do(ctx, http.MethodGet, fmt.Sprintf("/simrank?u=%d&v=%d", u, v), "", &resp)
	return resp.Score, err
}

// sourceVector turns a full /source response into a dense score vector,
// verifying it covers exactly the node set.
func (c *Client) sourceVector(entries []scoredNode, out []float64) ([]float64, error) {
	if len(entries) != c.n {
		return nil, fmt.Errorf("source returned %d scores, want %d", len(entries), c.n)
	}
	if cap(out) < c.n {
		out = make([]float64, c.n)
	}
	out = out[:c.n]
	seen := make([]bool, c.n)
	for _, e := range entries {
		if e.Node < 0 || e.Node >= int64(c.n) || seen[e.Node] {
			//slingvet:ignore noderangeerr backend protocol corruption, not a caller-supplied node: ErrNodeRange would misclassify it as retryable input error
			return nil, fmt.Errorf("source entry for node %d out of range or duplicated", e.Node)
		}
		seen[e.Node] = true
		out[e.Node] = e.Score
	}
	return out, nil
}

func (c *Client) SingleSource(ctx context.Context, u sling.NodeID, out []float64) ([]float64, error) {
	var resp struct {
		Scores []scoredNode `json:"scores"`
	}
	if err := c.Do(ctx, http.MethodGet, fmt.Sprintf("/source?u=%d", u), "", &resp); err != nil {
		return nil, err
	}
	return c.sourceVector(resp.Scores, out)
}

func (c *Client) SingleSourceBatch(ctx context.Context, us []sling.NodeID) ([][]float64, error) {
	ops := make([]map[string]interface{}, len(us))
	for i, u := range us {
		ops[i] = map[string]interface{}{"op": "source", "u": u}
	}
	body, err := json.Marshal(ops)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Results []struct {
			Scores []scoredNode `json:"scores"`
			Error  string       `json:"error"`
			Code   string       `json:"code"`
		} `json:"results"`
	}
	if err := c.Do(ctx, http.MethodPost, "/batch", string(body), &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(us) {
		return nil, fmt.Errorf("batch returned %d results for %d ops", len(resp.Results), len(us))
	}
	rows := make([][]float64, len(us))
	for i, r := range resp.Results {
		if r.Error != "" {
			if r.Code == "node_range" {
				return nil, fmt.Errorf("%w: batch op %d: %s", sling.ErrNodeRange, i, r.Error)
			}
			return nil, fmt.Errorf("batch op %d: %s", i, r.Error)
		}
		if rows[i], err = c.sourceVector(r.Scores, nil); err != nil {
			return nil, fmt.Errorf("batch op %d: %w", i, err)
		}
	}
	return rows, nil
}

func (c *Client) TopK(ctx context.Context, u sling.NodeID, k int) ([]sling.Scored, error) {
	var resp struct {
		Results []scoredNode `json:"results"`
	}
	err := c.Do(ctx, http.MethodGet, fmt.Sprintf("/topk?u=%d&k=%d", u, k), "", &resp)
	return toScored(resp.Results), err
}

func (c *Client) SourceTop(ctx context.Context, u sling.NodeID, limit int) ([]sling.Scored, error) {
	var resp struct {
		Scores []scoredNode `json:"scores"`
	}
	err := c.Do(ctx, http.MethodGet, fmt.Sprintf("/source?u=%d&limit=%d", u, limit), "", &resp)
	return toScored(resp.Scores), err
}

// Fragment fetches a node's HP fragment from GET /shard/fragment — the
// remote half of sling.ShardBackend.Fragment.
func (c *Client) Fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error) {
	var f sling.Fragment
	if err := c.Do(ctx, http.MethodGet, fmt.Sprintf("/shard/fragment?u=%d", u), "", &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// sliceReq is the POST /shard/source and /shard/top request body.
type sliceReq struct {
	Fragment *sling.Fragment `json:"fragment"`
	K        int             `json:"k,omitempty"`
	Skip     int64           `json:"skip,omitempty"`
	Lo       int             `json:"lo"`
	Hi       int             `json:"hi"`
}

// SourceSlice sends a fragment to POST /shard/source and returns the
// [lo, hi) slice of its score vector.
func (c *Client) SourceSlice(ctx context.Context, f *sling.Fragment, lo, hi int) ([]float64, error) {
	body, err := json.Marshal(sliceReq{Fragment: f, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	var resp struct {
		Scores []float64 `json:"scores"`
	}
	if err := c.Do(ctx, http.MethodPost, "/shard/source", string(body), &resp); err != nil {
		return nil, err
	}
	if len(resp.Scores) != hi-lo {
		return nil, fmt.Errorf("shard source returned %d scores, want %d", len(resp.Scores), hi-lo)
	}
	return resp.Scores, nil
}

// TopSlice asks POST /shard/top for a fragment's top-k list over
// [lo, hi).
func (c *Client) TopSlice(ctx context.Context, f *sling.Fragment, k int, skip sling.NodeID, lo, hi int) ([]sling.Scored, error) {
	body, err := json.Marshal(sliceReq{Fragment: f, K: k, Skip: int64(skip), Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	var resp struct {
		Results []scoredNode `json:"results"`
	}
	if err := c.Do(ctx, http.MethodPost, "/shard/top", string(body), &resp); err != nil {
		return nil, err
	}
	return toScored(resp.Results), nil
}
