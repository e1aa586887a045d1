// Package httpclient is the SLING Querier-over-the-wire adapter: it
// drives the package server's HTTP+JSON API — in-process through an
// http.Handler or over the network through an *http.Client — as a
// sling.Querier, plus the shard fragment endpoints the sharded router
// needs. It is the one HTTP client shape in the repository,
// shared by the conformance matrix (which wraps it with a report label)
// and the remote shard client.
//
// encoding/json emits the shortest float64 representation that
// round-trips exactly, so scores survive the JSON hop bit-for-bit and
// wire backends participate in bitwise cross-backend checks.
//
// Transient overload answers (429) are retried exactly once, after
// honoring the server's Retry-After header; the wait observes ctx, so a
// deadline shorter than the advised backoff returns ctx.Err() instead of
// sleeping past it.
package httpclient

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"sling"
)

// Error is a non-200 answer. Callers assert on Code; when the server
// tagged the failure with a machine-readable code (node_range), Error
// wraps the matching sentinel so errors.Is sees through the wire: a bad
// node yields sling.ErrNodeRange from an HTTP backend exactly like from
// the library backends.
type Error struct {
	Code int
	Body string
	Err  error // optional sentinel reconstructed from the response code field
}

func (e *Error) Error() string {
	return fmt.Sprintf("http %d: %s", e.Code, strings.TrimSpace(e.Body))
}

func (e *Error) Unwrap() error { return e.Err }

// Options configures a Client. Exactly one transport must be set:
// Handler serves requests in-process (the conformance and test shape),
// BaseURL issues real network requests (the remote shard / replication
// shape).
type Options struct {
	// Handler is the in-process transport.
	Handler http.Handler
	// BaseURL is the network transport, e.g. "http://shard-3:8080".
	BaseURL string
	// Client issues BaseURL requests; defaults to an *http.Client with a
	// 30s timeout. Ignored with Handler.
	Client *http.Client
	// Prefix is prepended to every route, e.g. "/g/wiki" to drive one
	// graph of a catalog server.
	Prefix string
	// Nodes is the served node count, used to validate /source vectors
	// and reported in Meta.
	Nodes int
	// Name labels the backend in Meta; defaults to "http".
	Name string
	// Clamped reports the backend's scoring contract in Meta.
	Clamped bool
}

// Client is a sling.Querier (and shard-endpoint client) over the HTTP
// API. It is safe for concurrent use.
type Client struct {
	h       http.Handler
	base    string
	hc      *http.Client
	prefix  string
	n       int
	name    string
	clamped bool
}

// New validates o and returns a Client.
func New(o Options) (*Client, error) {
	if (o.Handler == nil) == (o.BaseURL == "") {
		return nil, fmt.Errorf("httpclient: exactly one of Handler and BaseURL must be set")
	}
	c := &Client{
		h:       o.Handler,
		base:    strings.TrimSuffix(o.BaseURL, "/"),
		hc:      o.Client,
		prefix:  strings.TrimSuffix(o.Prefix, "/"),
		n:       o.Nodes,
		name:    o.Name,
		clamped: o.Clamped,
	}
	if c.name == "" {
		c.name = "http"
	}
	if c.base != "" && c.hc == nil {
		c.hc = &http.Client{Timeout: 30 * time.Second}
	}
	return c, nil
}

// Close implements sling.Querier; the client owns no connection state
// beyond the transport's, so it is a no-op.
func (c *Client) Close() error { return nil }

// roundTrip issues one request and returns (status, retry-after header,
// body). The in-process path re-checks ctx after the handler ran: a
// server that observed the cancellation dropped the response.
func (c *Client) roundTrip(ctx context.Context, method, target, body string) (int, string, []byte, error) {
	if c.h != nil {
		var req *http.Request
		if body == "" {
			req = httptest.NewRequest(method, target, nil)
		} else {
			req = httptest.NewRequest(method, target, strings.NewReader(body))
		}
		req = req.WithContext(ctx)
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, req)
		if err := ctx.Err(); err != nil {
			return 0, "", nil, err
		}
		return rec.Code, rec.Header().Get("Retry-After"), rec.Body.Bytes(), nil
	}
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+target, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return 0, "", nil, cerr
		}
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), data, nil
}

// retryWait sleeps for the server-advised backoff, observing ctx.
func retryWait(ctx context.Context, header string) error {
	secs, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || secs < 0 {
		secs = 0
	}
	if secs == 0 {
		return ctx.Err()
	}
	t := time.NewTimer(time.Duration(secs) * time.Second)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do issues one request against prefix+target and decodes the JSON
// response into out. A pre-cancelled ctx returns before any work,
// matching the Querier contract. A 429 is retried exactly once after the
// Retry-After backoff; every other non-200 (and a second 429) returns an
// *Error.
func (c *Client) Do(ctx context.Context, method, target, body string, out interface{}) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	target = c.prefix + target
	code, retryAfter, data, err := c.roundTrip(ctx, method, target, body)
	if err != nil {
		return err
	}
	if code == http.StatusTooManyRequests {
		if err := retryWait(ctx, retryAfter); err != nil {
			return err
		}
		code, _, data, err = c.roundTrip(ctx, method, target, body)
		if err != nil {
			return err
		}
	}
	if code != http.StatusOK {
		he := &Error{Code: code, Body: string(data)}
		var coded struct {
			Code string `json:"code"`
		}
		if json.Unmarshal(data, &coded) == nil && coded.Code == "node_range" {
			he.Err = sling.ErrNodeRange
		}
		return he
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding %q: %w", method, target, data, err)
	}
	return nil
}
