package httpclient

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"sling"
)

// countingHandler serves a scripted status sequence and counts requests.
type countingHandler struct {
	calls      atomic.Int64
	statuses   []int
	retryAfter string
	body       string
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i := int(h.calls.Add(1)) - 1
	status := h.statuses[len(h.statuses)-1]
	if i < len(h.statuses) {
		status = h.statuses[i]
	}
	if status == http.StatusTooManyRequests && h.retryAfter != "" {
		w.Header().Set("Retry-After", h.retryAfter)
	}
	w.WriteHeader(status)
	if status == http.StatusOK {
		w.Write([]byte(`{"score": 0.5}`))
	} else if h.body != "" {
		w.Write([]byte(h.body))
	}
}

func newTestClient(t *testing.T, h http.Handler) *Client {
	t.Helper()
	c, err := New(Options{Handler: h, Nodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRetry429Once pins the retry budget: a 429 answered by a 200 on the
// second attempt succeeds with exactly two requests on the wire.
func TestRetry429Once(t *testing.T) {
	h := &countingHandler{statuses: []int{429, 200}, retryAfter: "0"}
	c := newTestClient(t, h)
	var out struct {
		Score float64 `json:"score"`
	}
	if err := c.Do(context.Background(), http.MethodGet, "/x", "", &out); err != nil {
		t.Fatal(err)
	}
	if out.Score != 0.5 {
		t.Fatalf("score = %v", out.Score)
	}
	if got := h.calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want exactly 2 (one retry)", got)
	}
}

// TestRetry429Exhausted pins that a second 429 is NOT retried again: the
// client surfaces it after exactly two requests.
func TestRetry429Exhausted(t *testing.T) {
	h := &countingHandler{statuses: []int{429, 429, 200}, retryAfter: "0"}
	c := newTestClient(t, h)
	err := c.Do(context.Background(), http.MethodGet, "/x", "", &struct{}{})
	var he *Error
	if !errors.As(err, &he) || he.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want *Error with 429", err)
	}
	if got := h.calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want exactly 2", got)
	}
}

// TestRetryHonorsCtx pins that the Retry-After wait observes the ctx
// deadline instead of sleeping past it.
func TestRetryHonorsCtx(t *testing.T) {
	h := &countingHandler{statuses: []int{429}, retryAfter: "5"}
	c := newTestClient(t, h)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Do(ctx, http.MethodGet, "/x", "", &struct{}{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("waited %v, ignored ctx deadline", elapsed)
	}
	if got := h.calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retry after deadline)", got)
	}
}

func TestPreCancelledCtx(t *testing.T) {
	h := &countingHandler{statuses: []int{200}}
	c := newTestClient(t, h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Do(ctx, http.MethodGet, "/x", "", &struct{}{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if got := h.calls.Load(); got != 0 {
		t.Fatalf("server saw %d requests, want 0", got)
	}
}

// TestNodeRangeReconstruction pins that a machine-tagged node_range
// response surfaces as sling.ErrNodeRange through the wire.
func TestNodeRangeReconstruction(t *testing.T) {
	h := &countingHandler{
		statuses: []int{404},
		body:     `{"error":"node 99 not in [0,10)","code":"node_range"}`,
	}
	c := newTestClient(t, h)
	err := c.Do(context.Background(), http.MethodGet, "/x", "", &struct{}{})
	if !errors.Is(err, sling.ErrNodeRange) {
		t.Fatalf("err = %v, want to wrap ErrNodeRange", err)
	}
	var he *Error
	if !errors.As(err, &he) || he.Code != 404 {
		t.Fatalf("err = %v, want *Error with 404", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted neither transport")
	}
	if _, err := New(Options{Handler: http.NotFoundHandler(), BaseURL: "http://x"}); err == nil {
		t.Fatal("New accepted both transports")
	}
	c, err := New(Options{Handler: http.NotFoundHandler(), Name: "remote", Nodes: 4, Clamped: true})
	if err != nil {
		t.Fatal(err)
	}
	// Meta identity comes from construction; /stats scraping fails (404)
	// and is ignored.
	if m := c.Meta(); m.Nodes != 4 || m.Name != "remote" || !m.Clamped || m.C != 0 {
		t.Fatalf("client config lost: meta=%+v", m)
	}
}
