package main

import (
	"context"
	"net/http"
	"time"

	"sling"
	"sling/internal/core"
)

// topTracer issues the top-k workloads' traced requests through a
// server whose Querier (and, sharded, whose shard clients) record live
// spans. The facade and the shards call core themselves, so core's
// FragmentOf, SingleSourceFrom and SelectTop/SelectTopRange are replayed
// under the live span that did the work, on a copy of the same index.
type topTracer struct {
	rec   *recorder
	srv   http.Handler
	cores []*core.Index // the served index, or one per shard
	per   []topScratch  // per client
}

type topScratch struct {
	s     []*core.Scratch
	ss    []*core.SourceScratch
	out   []float64
	waits []float64 // slowest shard.top per request, µs
	// Scores the select scanned and the nonzero ones among them.
	scanned, nonzero int64
}

func newTopTracer(rec *recorder, srv http.Handler, cores []*core.Index, nc int) *topTracer {
	t := &topTracer{rec: rec, srv: srv, cores: cores, per: make([]topScratch, nc)}
	for c := range t.per {
		for _, x := range cores {
			t.per[c].s = append(t.per[c].s, x.NewScratch())
			t.per[c].ss = append(t.per[c].ss, x.NewSourceScratch())
		}
	}
	return t
}

func (t *topTracer) request(c int, i int64, w *respWriter, url string, u sling.NodeID) outcome {
	root := t.rec.begin("server", i, noParent, false)
	rt := newReqTrace(t.rec, i, root)
	req := newRequest(withTrace(context.Background(), rt), http.MethodGet, url, nil)
	d := serve(t.srv, w, req)
	t.rec.end(root, int64(w.body.Len()))
	if w.code != http.StatusOK {
		return outcome{lat: d, ok: false, traced: true}
	}
	p := &t.per[c]
	if len(t.cores) == 1 {
		// Unsharded: the facade's TopK gathers, propagates and selects.
		keys, vals := t.fragment(p, 0, i, rt.log.querier, u)
		n := t.cores[0].Graph().NumNodes()
		t.topSlice(p, 0, i, rt.log.querier, keys, vals, topK, u, 0, n)
		return outcome{lat: d, ok: true, traced: true}
	}
	var wait time.Duration
	for _, call := range rt.log.calls {
		switch call.op {
		case "fragment":
			t.fragment(p, call.shard, i, call.span, u)
		case "top":
			wait = max(wait, call.dur)
			t.topSlice(p, call.shard, i, call.span, call.f.Keys, call.f.Vals, call.k, call.skip, call.lo, call.hi)
		}
	}
	p.waits = append(p.waits, us(wait))
	return outcome{lat: d, ok: true, traced: true}
}

// fragment replays FragmentOf(u) on core index j under parent.
func (t *topTracer) fragment(p *topScratch, j int, req int64, parent int32, u sling.NodeID) ([]uint64, []float64) {
	a := time.Now()
	keys, vals, _ := t.cores[j].FragmentOf(u, p.s[j])
	t.rec.record("core.fragment", req, parent, true, a, time.Now(), int64(len(keys)))
	return keys, vals
}

// topSlice replays the propagation of a fragment over the whole graph
// and the select over [lo, hi) on core index j under parent.
func (t *topTracer) topSlice(p *topScratch, j int, req int64, parent int32, keys []uint64, vals []float64, k int, skip sling.NodeID, lo, hi int) {
	a := time.Now()
	p.out = t.cores[j].SingleSourceFrom(keys, vals, p.ss[j], p.out)
	b := time.Now()
	nz := int64(0)
	for _, s := range p.out {
		if s > 0 {
			nz++
		}
	}
	t.rec.record("core.propagate", req, parent, true, a, b, nz)
	a = time.Now()
	var top []core.TopEntry
	if lo == 0 && hi == len(p.out) {
		top = core.SelectTop(p.out, k, skip)
	} else {
		top = core.SelectTopRange(p.out, k, skip, lo, hi)
	}
	t.rec.record("core.select", req, parent, true, a, time.Now(), int64(len(top)))
	inRange := int64(0)
	for _, s := range p.out[lo:hi] {
		if s > 0 {
			inRange++
		}
	}
	p.scanned += int64(hi - lo)
	p.nonzero += inRange
}

// useful is the share of scanned scores that were nonzero.
func (t *topTracer) useful() float64 {
	var scanned, nonzero int64
	for _, p := range t.per {
		scanned += p.scanned
		nonzero += p.nonzero
	}
	if scanned == 0 {
		return 0
	}
	return float64(nonzero) / float64(scanned)
}

// waits is the slowest shard call of every traced request, µs.
func (t *topTracer) waits() []float64 {
	var out []float64
	for _, p := range t.per {
		out = append(out, p.waits...)
	}
	return out
}
