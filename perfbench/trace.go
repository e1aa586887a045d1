package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sling"
)

// A span is one timed call at a layer boundary. Spans of one request
// share req; parent links a span to the span that caused it (noParent
// for a request's root). A replayed span re-issued the request's inputs
// at a layer's public entry point after the timed request finished: it
// stands in for work the program did inside its parent, so it counts
// against the parent's self time by its duration, not by its interval.
type span struct {
	id, parent int32
	req        int64
	name       string
	start, end int64 // ns since the recorder's epoch
	replay     bool
	n          int64 // a count the call produced: entries, nonzeros, bytes
}

const noParent = -1

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory; they are written out when the run
// ends. It is safe for concurrent use: shard calls of one request run
// on the router's goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name string, req int64, parent int32, replay bool) int32 {
	t := r.now()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{id: id, parent: parent, req: req, name: name, start: t, replay: replay})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32, n int64) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].end = t
	r.spans[id].n = n
	r.mu.Unlock()
}

// record adds a span that was timed by the caller.
func (r *recorder) record(name string, req int64, parent int32, replay bool, start, end time.Time, n int64) int32 {
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{
		id: id, parent: parent, req: req, name: name,
		start: int64(start.Sub(r.t0)), end: int64(end.Sub(r.t0)),
		replay: replay, n: n,
	})
	r.mu.Unlock()
	return id
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeTSV writes every span, one per line.
func (r *recorder) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tid\tparent\tname\tstart_ns\tend_ns\treplay\tn")
	for _, s := range r.snapshot() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%t\t%d\n", s.req, s.id, s.parent, s.name, s.start, s.end, s.replay, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time, indexed by span id: its
// duration minus the part of its interval covered by the union of its
// live children, minus the whole duration of its replayed children.
// Self time never goes below zero.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.parent != noParent {
			kids[s.parent] = append(kids[s.parent], s.id)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var live []iv
	for i := range spans {
		s := &spans[i]
		covered := int64(0)
		live = live[:0]
		for _, c := range kids[s.id] {
			k := &spans[c]
			if k.replay {
				covered += k.dur()
				continue
			}
			lo, hi := max(k.start, s.start), min(k.end, s.end)
			if lo < hi {
				live = append(live, iv{lo, hi})
			}
		}
		sort.Slice(live, func(a, b int) bool { return live[a].lo < live[b].lo })
		curLo, curHi := int64(0), int64(-1)
		for _, x := range live {
			if x.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x.lo, x.hi
			} else if x.hi > curHi {
				curHi = x.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = max(s.dur()-covered, 0)
	}
	return self
}

// selfSumGap measures how well the layers account for request latency:
// for every request rooted at a span named root, the sum of its spans'
// self times minus the root's duration, as a share of the latter. It
// returns the median over requests (0 when there are none), so a few
// slow replays do not stand for the typical request. Spans outside those
// trees (probes, set-up) do not count. A parent always begins before its
// children, so it has the lower id.
func selfSumGap(spans []span, self []int64, root string) float64 {
	rootOf := make([]int32, len(spans))
	sums := make(map[int32]int64)
	for i := range spans {
		s := &spans[i]
		if s.parent == noParent {
			rootOf[i] = s.id
		} else {
			rootOf[i] = rootOf[s.parent]
		}
		if spans[rootOf[i]].name == root {
			sums[rootOf[i]] += self[i]
		}
	}
	var gaps []float64
	for id, sum := range sums {
		if d := spans[id].dur(); d > 0 {
			gaps = append(gaps, float64(sum-d)/float64(d))
		}
	}
	return median(gaps)
}

// reqTrace travels in a traced request's context, so the tracing
// wrappers the benchmark hands the program know which request and
// parent span a call belongs to.
type reqTrace struct {
	rec    *recorder
	req    int64
	parent int32
	log    *callLog
}

// callLog collects what a traced request's live spans saw, for the
// replays the client issues once the request has finished. One request
// shares one log across its contexts.
type callLog struct {
	mu      sync.Mutex
	querier int32       // the live querier span, noParent if none
	calls   []shardCall // shard calls, in completion order
}

func (l *callLog) add(c shardCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// shardCall is one live shard call, kept so the client can replay the
// core work under it after the request.
type shardCall struct {
	span   int32
	op     string
	shard  int
	f      *sling.Fragment
	k      int
	skip   sling.NodeID
	lo, hi int
	dur    time.Duration
}

type traceKey struct{}

func withTrace(ctx context.Context, rt *reqTrace) context.Context {
	return context.WithValue(ctx, traceKey{}, rt)
}

func traceOf(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(traceKey{}).(*reqTrace)
	return rt
}

// newReqTrace starts the trace of request req under the root span.
func newReqTrace(rec *recorder, req int64, root int32) *reqTrace {
	return &reqTrace{rec: rec, req: req, parent: root, log: &callLog{querier: noParent}}
}

// child returns rt with its spans hung under parent; the call log stays
// shared.
func (rt *reqTrace) child(parent int32) *reqTrace {
	return &reqTrace{rec: rt.rec, req: rt.req, parent: parent, log: rt.log}
}
