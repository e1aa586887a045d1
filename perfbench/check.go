package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"sling"
)

// checker compares served answers with a reference. Scores must match
// bit for bit: the served path and the reference run the same
// deterministic computation, and JSON carries a float64 exactly, so any
// difference is a wrong answer. One mismatch fails the run.
type checker struct {
	mu      sync.Mutex
	checked int
	bad     int
	notes   []string // the first few mismatches, for the log
}

func (c *checker) pass() {
	c.mu.Lock()
	c.checked++
	c.mu.Unlock()
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.checked++
	c.bad++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// ok reports whether at least one answer was checked and none failed.
func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checked > 0 && c.bad == 0
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// pairBody is a GET /simrank response.
type pairBody struct {
	U     int64   `json:"u"`
	V     int64   `json:"v"`
	Score float64 `json:"score"`
}

// topBody is a GET /topk response.
type topBody struct {
	U       int64        `json:"u"`
	Results []scoredNode `json:"results"`
}

type scoredNode struct {
	Node  int64   `json:"node"`
	Score float64 `json:"score"`
}

// pair checks a /simrank body against the reference score.
func (c *checker) pair(body []byte, u, v int64, want float64) {
	var got pairBody
	if err := json.Unmarshal(body, &got); err != nil {
		c.fail("simrank(%d,%d): bad body %q: %v", u, v, body, err)
		return
	}
	if got.U != u || got.V != v || !sameBits(got.Score, want) {
		c.fail("simrank(%d,%d): got (%d,%d) %v, want %v", u, v, got.U, got.V, got.Score, want)
		return
	}
	c.pass()
}

// labeled converts reference top-k results to external labels.
func labeled(top []sling.Scored, labels []int64) []scoredNode {
	out := make([]scoredNode, len(top))
	for i, e := range top {
		out[i] = scoredNode{Node: labels[e.Node], Score: e.Score}
	}
	return out
}

// topkOrder decodes a /topk body for source u and checks, independently
// of any reference, that the list is in descending score order with
// ties broken by ascending node ID (dense IDs, resolved through dense).
func topkOrder(body []byte, u int64, dense map[int64]sling.NodeID) ([]scoredNode, error) {
	var got topBody
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("topk(%d): bad body %q: %v", u, body, err)
	}
	if got.U != u {
		return nil, fmt.Errorf("topk(%d): answered for %d", u, got.U)
	}
	for i := 1; i < len(got.Results); i++ {
		a, b := got.Results[i-1], got.Results[i]
		inOrder := a.Score > b.Score || (sameBits(a.Score, b.Score) && dense[a.Node] < dense[b.Node])
		if !inOrder {
			return nil, fmt.Errorf("topk(%d): results %d and %d out of order: %+v, %+v", u, i-1, i, a, b)
		}
	}
	return got.Results, nil
}

// topk checks a /topk body against the reference list.
func (c *checker) topk(body []byte, u int64, want []scoredNode, dense map[int64]sling.NodeID) {
	got, err := topkOrder(body, u, dense)
	if err != nil {
		c.fail("%v", err)
		return
	}
	if len(got) != len(want) {
		c.fail("topk(%d): %d results, want %d", u, len(got), len(want))
		return
	}
	for i := range want {
		if got[i].Node != want[i].Node || !sameBits(got[i].Score, want[i].Score) {
			c.fail("topk(%d): result %d is %+v, want %+v", u, i, got[i], want[i])
			return
		}
	}
	c.pass()
}
