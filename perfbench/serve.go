package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// respWriter is a reusable in-process http.ResponseWriter. Requests go
// straight into ServeHTTP: on a two-core host a client process and the
// loopback stack would take CPU from the server being measured.
type respWriter struct {
	h           http.Header
	code        int
	wroteHeader bool
	body        bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{h: http.Header{}, code: http.StatusOK} }

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.wroteHeader = true
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *respWriter) reset() {
	clear(w.h)
	w.code = http.StatusOK
	w.wroteHeader = false
	w.body.Reset()
}

// serve sends one request through h into w and returns its latency.
func serve(h http.Handler, w *respWriter, req *http.Request) time.Duration {
	w.reset()
	t := time.Now()
	h.ServeHTTP(w, req)
	return time.Since(t)
}

// newRequest builds an in-process request; the benchmark builds every
// URL itself, so a parse failure is a bug in it.
func newRequest(ctx context.Context, method, url string, body []byte) *http.Request {
	var req *http.Request
	var err error
	if body == nil {
		req, err = http.NewRequestWithContext(ctx, method, url, nil)
	} else {
		req, err = http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	}
	if err != nil {
		panic(err)
	}
	return req
}

// loop is what a closed loop measured, bucketed by the second of the
// window each request started in.
type loop struct {
	secs      []second
	tracedLat []float64 // µs per traced request
	attempted int64
	failed    int64
}

// second is one second of a closed loop.
type second struct {
	lat []float64 // µs per untraced request; a failed one is +Inf
	ok  int64     // requests that succeeded, traced ones included
}

func newLoop(dur time.Duration) *loop {
	return &loop{secs: make([]second, max(1, int((dur+time.Second-1)/time.Second)))}
}

// add records a request that started at offset since the window opened.
func (l *loop) add(offset time.Duration, o outcome) {
	i := min(max(int(offset/time.Second), 0), len(l.secs)-1)
	s := &l.secs[i]
	l.attempted++
	lat := us(o.lat)
	if o.ok {
		s.ok++
	} else {
		l.failed++
		lat = math.Inf(1)
	}
	if o.traced {
		l.tracedLat = append(l.tracedLat, lat)
	} else {
		s.lat = append(s.lat, lat)
	}
}

// merge adds p's requests to l.
func (l *loop) merge(p *loop) {
	for i := range p.secs {
		l.secs[i].lat = append(l.secs[i].lat, p.secs[i].lat...)
		l.secs[i].ok += p.secs[i].ok
	}
	l.tracedLat = append(l.tracedLat, p.tracedLat...)
	l.attempted += p.attempted
	l.failed += p.failed
}

// untraced is every untraced latency of the window.
func (l *loop) untraced() []float64 {
	var out []float64
	for _, s := range l.secs {
		out = append(out, s.lat...)
	}
	return out
}

// outcome is one request as a closed-loop client saw it.
type outcome struct {
	lat    time.Duration
	ok     bool
	traced bool
}

// closedLoop runs n clients until dur has passed. Each sends request i
// (numbered across clients, from 0), waits for the answer, and sends its
// next; do serves request i for client c.
func closedLoop(n int, dur time.Duration, do func(c int, i int64) outcome) *loop {
	var next atomic.Int64
	parts := make([]*loop, n)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		parts[c] = newLoop(dur)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				parts[c].add(now.Sub(start), do(c, next.Add(1)-1))
			}
		}(c)
	}
	wg.Wait()
	out := newLoop(dur)
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// report records a read loop's end-to-end numbers on r. Each is the
// median over the window's seconds of that second's figure, so a
// second-long stall on a shared host moves none of them.
func (r *run) report(l *loop) {
	r.attempted += l.attempted
	r.failed += l.failed
	var rates, p50s, p99s []float64
	var perSec []int
	for _, s := range l.secs {
		d := newDist(s.lat)
		perSec = append(perSec, d.n())
		if d.n() == 0 {
			continue
		}
		rates = append(rates, float64(s.ok))
		p50s = append(p50s, d.pct(50))
		p99s = append(p99s, d.pct(99))
	}
	r.e2e["throughput_rps"] = median(rates)
	r.e2e["latency_p50_us"] = median(p50s)
	r.e2e["latency_p99_us"] = median(p99s)
	d := newDist(l.untraced())
	top := d.topPct()
	r.detail["read_samples"] = d.n()
	r.detail["read_samples_per_second"] = perSec
	r.detail["read_pooled_p50_us"] = d.pct(50)
	r.detail["read_pooled_p99_us"] = d.pct(99)
	r.detail["read_top_pct"] = top
	r.detail["read_top_pct_us"] = d.pct(top)
}

// sample is a served answer kept for checking after the timed loop.
type sample struct {
	i    int64
	body []byte
}

// samples collects answers per client without locking.
type samples [][]sample

func (s samples) keep(c int, i int64, w *respWriter) {
	if i%checkEvery == 0 {
		s[c] = append(s[c], sample{i: i, body: append([]byte(nil), w.body.Bytes()...)})
	}
}

func (s samples) all() []sample {
	var out []sample
	for _, p := range s {
		out = append(out, p...)
	}
	return out
}
