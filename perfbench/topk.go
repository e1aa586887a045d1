package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sling"
	"sling/internal/core"
	"sling/internal/metrics"
	"sling/internal/rng"
	"sling/internal/server"
	"sling/internal/shard"
)

// topk-zipf: GET /topk?k=10 through server.NewQuerier over an in-memory
// index built at start-up with two workers. Sources are popular keys,
// so hot keys repeat heavily. The core dominates: fragment gather,
// Algorithm-6 propagation and the heap select over all n scores.
//
// topk-sharded: exactly the same request stream, served by shard.Querier
// over two byte-balanced shards written by shard.Split and opened
// in-process as slingserver -shards does. It is the only workload
// through the scatter/gather router; its gap to topk-zipf is the
// router's cost, and each shard propagates the fragment over the whole
// graph again.
const (
	topGraph   = "Google"
	topShards  = 2
	topWorkers = 2 // build workers at start-up
)

// Both top-k workloads set up twice: the first deployment is the
// reference the second, served one is checked against. A set-up is a
// full build, seconds long, so two readings are enough.

// topRun is the state both top-k workloads share.
type topRun struct {
	r       *run
	edges   string
	g       *sling.Graph
	labels  []int64
	dense   map[int64]sling.NodeID
	sources []sling.NodeID
}

func newTopRun(r *run) (*topRun, error) {
	edges, g, labels, err := r.standIn(topGraph)
	if err != nil {
		return nil, err
	}
	z := newZipf(rng.New(r.seed), rankByInDegree(g), zipfS)
	sources := make([]sling.NodeID, streamLen)
	for i := range sources {
		sources[i] = z.next()
	}
	r.env.Params["clients"] = clients()
	r.env.Params["keys"] = fmt.Sprintf("zipf(%g) sources over in-degree rank", zipfS)
	r.env.Params["k"] = topK
	r.env.Params["build_workers"] = topWorkers
	r.env.Params["setups"] = 2
	return &topRun{r: r, edges: edges, g: g, labels: labels, dense: denseMap(labels), sources: sources}, nil
}

func (t *topRun) url(i int64) string {
	return fmt.Sprintf("/topk?u=%d&k=%d", t.labels[t.sources[i%streamLen]], topK)
}

// firstAnswer sends request 0 and checks it against want, or only its
// order when want is nil (the reference's own first answer).
func (t *topRun) firstAnswer(h http.Handler, want []scoredNode) error {
	w := newRespWriter()
	serve(h, w, newRequest(context.Background(), http.MethodGet, t.url(0), nil))
	if w.code != http.StatusOK {
		return fmt.Errorf("first answer: http %d: %s", w.code, w.body.Bytes())
	}
	u := t.labels[t.sources[0]]
	if want == nil {
		_, err := topkOrder(w.body.Bytes(), u, t.dense)
		return err
	}
	var c checker
	c.topk(w.body.Bytes(), u, want, t.dense)
	if !c.ok() {
		return fmt.Errorf("first answer is wrong: %v", c.notes)
	}
	return nil
}

// want is the reference answer for request i.
func (t *topRun) want(ref *sling.Index, i int64) ([]scoredNode, error) {
	top, err := ref.TopK(context.Background(), t.sources[i%streamLen], topK)
	if err != nil {
		return nil, err
	}
	return labeled(top, t.labels), nil
}

// serveLoop drives the closed loop over plain, sending every odd
// request through traced instead when tracing, and checks the kept
// answers against ref.
func (t *topRun) serveLoop(plain http.Handler, tr *topTracer, ref *sling.Index) (*loop, error) {
	r := t.r
	ctx := context.Background()
	nc := clients()
	kept := make(samples, nc)
	ws := make([]*respWriter, nc)
	for c := range ws {
		ws[c] = newRespWriter()
	}
	logf("serving %s for %ds with %d clients", r.workload, r.seconds, nc)
	l := closedLoop(nc, time.Duration(r.seconds)*time.Second, func(c int, i int64) outcome {
		w := ws[c]
		if tr != nil && i%2 == 1 {
			return tr.request(c, i, w, t.url(i), t.sources[i%streamLen])
		}
		d := serve(plain, w, newRequest(ctx, http.MethodGet, t.url(i), nil))
		ok := w.code == http.StatusOK
		if ok {
			kept.keep(c, i, w)
		}
		return outcome{lat: d, ok: ok}
	})
	r.report(l)
	for _, s := range kept.all() {
		want, err := t.want(ref, s.i)
		if err != nil {
			return nil, err
		}
		r.chk.topk(s.body, t.labels[t.sources[s.i%streamLen]], want, t.dense)
	}
	return l, nil
}

// buildReport records the build counts and timings of the set-ups.
func (r *run) buildReport(st sling.BuildStats, loads, builds []float64) {
	r.layer["core.build_s"] = median(builds)
	r.layer["core.build_walk_pairs"] = float64(st.WalkPairs)
	r.layer["core.build_hp_pushes"] = float64(st.HPPushes)
	r.layer["core.build_entries"] = float64(st.Entries)
	r.layer["core.build_dropped"] = float64(st.Dropped)
	r.layer["graph.load_s"] = median(loads)
}

// coreReport records the replayed core spans both top-k workloads have.
func (r *run) coreReport(x *spanIndex, tr *topTracer) {
	frag := x.dur("core.fragment")
	r.layer["core.fragment_us"] = frag.pct(50)
	r.layer["core.fragment_p99_us"] = frag.pct(99)
	r.layer["core.fragment_entries"] = x.meanN("core.fragment")
	prop := x.dur("core.propagate")
	r.layer["core.propagate_us"] = prop.pct(50)
	r.layer["core.propagate_p99_us"] = prop.pct(99)
	r.layer["core.propagate_nonzero"] = x.meanN("core.propagate")
	r.layer["core.select_us"] = x.dur("core.select").pct(50)
	r.layer["core.select_useful"] = tr.useful()
}

func runTopKZipf(r *run) error {
	t, err := newTopRun(r)
	if err != nil {
		return err
	}
	r.env.Params["deployment"] = "server.NewQuerier over an in-memory index"
	type deployment struct {
		ix  *sling.Index
		srv *server.Server
		g   *sling.Graph
		st  sling.BuildStats
	}
	var setups, loads, builds []float64
	setup := func(want []scoredNode) (*deployment, error) {
		t0 := time.Now()
		g, labels, err := sling.LoadEdgeListFile(t.edges, false)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		ix, st, err := sling.BuildWithStats(g, r.buildOpts(topWorkers)...)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		srv, err := server.NewQuerier(ix, labels, server.Config{})
		if err != nil {
			return nil, err
		}
		if err := t.firstAnswer(srv, want); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, t1.Sub(t0).Seconds())
		builds = append(builds, t2.Sub(t1).Seconds())
		return &deployment{ix: ix, srv: srv, g: g, st: st}, nil
	}

	logf("set-up 1/2 (reference)")
	ref, err := setup(nil)
	if err != nil {
		return err
	}
	want0, err := t.want(ref.ix, 0)
	if err != nil {
		return err
	}
	heap0 := liveHeap()
	logf("set-up 2/2")
	served, err := setup(want0)
	if err != nil {
		return err
	}
	heap := int64(liveHeap()) - int64(heap0)
	r.e2e["setup_s"] = median(setups)
	r.e2e["heap_bytes"] = float64(heap)
	size, err := serializedBytes(served.ix)
	if err != nil {
		return err
	}
	r.e2e["index_bytes"] = float64(size)
	r.detail["setup_samples_s"] = setups

	var tr *topTracer
	if r.trace {
		srvT, err := server.NewQuerier(tracingQuerier{served.ix}, t.labels, server.Config{})
		if err != nil {
			return err
		}
		cix, err := coreCopy(served.ix, served.g)
		if err != nil {
			return err
		}
		tr = newTopTracer(r.rec, srvT, []*core.Index{cix}, clients())
	}
	l, err := t.serveLoop(served.srv, tr, ref.ix)
	if err != nil {
		return err
	}
	if r.trace {
		x := newSpanIndex(r.rec.snapshot())
		r.common(x, l)
		r.layer["querier.self_us"] = x.selfDur("querier").pct(50)
		r.coreReport(x, tr)
		r.buildReport(served.st, loads, builds)
	}
	return nil
}

func runTopKSharded(r *run) error {
	t, err := newTopRun(r)
	if err != nil {
		return err
	}
	r.env.Params["deployment"] = fmt.Sprintf("shard.Querier over %d in-process shards", topShards)
	r.env.Params["shards"] = topShards
	type deployment struct {
		ix       *sling.Index // the unsharded build the shards were split from
		g        *sling.Graph
		man      *shard.Manifest
		dir      string
		backends []*sling.Index
		q        *shard.Querier
		srv      *server.Server
		st       sling.BuildStats
	}
	var setups, loads, builds, splits []float64
	setup := func(i int, want []scoredNode) (*deployment, error) {
		dir := filepath.Join(t.r.work, fmt.Sprintf("shards-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		g, labels, err := sling.LoadEdgeListFile(t.edges, false)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		ix, st, err := sling.BuildWithStats(g, r.buildOpts(topWorkers)...)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		m, err := shard.Split(ix, topShards, dir)
		if err != nil {
			return nil, err
		}
		m.Graph = t.edges
		manPath := filepath.Join(dir, "manifest.json")
		if err := m.Save(manPath); err != nil {
			return nil, err
		}
		t3 := time.Now()
		// Open, as slingserver -shards does: load the manifest, open each
		// shard in-process, route through one registry.
		if m, err = shard.Load(manPath); err != nil {
			return nil, err
		}
		d := &deployment{ix: ix, g: g, man: m, dir: dir, st: st}
		scs := make([]shard.Client, len(m.Shards))
		for j, si := range m.Shards {
			sx, err := sling.Open(shard.Resolve(manPath, si.Path), g)
			if err != nil {
				return nil, err
			}
			d.backends = append(d.backends, sx)
			scs[j] = shard.NewLocal(sx)
		}
		reg := metrics.NewRegistry()
		if d.q, err = shard.New(m, scs, reg); err != nil {
			return nil, err
		}
		if d.srv, err = server.NewQuerier(d.q, labels, server.Config{Registry: reg}); err != nil {
			return nil, err
		}
		if err := t.firstAnswer(d.srv, want); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, t1.Sub(t0).Seconds())
		builds = append(builds, t2.Sub(t1).Seconds())
		splits = append(splits, t3.Sub(t2).Seconds())
		return d, nil
	}

	logf("set-up 1/2 (reference)")
	ref, err := setup(1, nil)
	if err != nil {
		return err
	}
	ref.q.Close()
	want0, err := t.want(ref.ix, 0)
	if err != nil {
		return err
	}
	heap0 := liveHeap()
	logf("set-up 2/2")
	served, err := setup(2, want0)
	if err != nil {
		return err
	}
	served.ix = nil // only the shards serve
	heap := int64(liveHeap()) - int64(heap0)
	defer served.q.Close()
	r.e2e["setup_s"] = median(setups)
	r.e2e["heap_bytes"] = float64(heap)
	var size int64
	for _, si := range served.man.Shards {
		n, err := fileSize(filepath.Join(served.dir, si.Path))
		if err != nil {
			return err
		}
		size += n
	}
	r.e2e["index_bytes"] = float64(size)
	r.detail["setup_samples_s"] = setups

	var tr *topTracer
	if r.trace {
		// A second router over the same shard backends, with tracing
		// clients, behind a tracing Querier.
		tcs := make([]shard.Client, len(served.backends))
		cores := make([]*core.Index, len(served.backends))
		for j, sx := range served.backends {
			tcs[j] = tracingClient{Client: shard.NewLocal(sx), idx: j}
			if cores[j], err = coreCopy(sx, served.g); err != nil {
				return err
			}
		}
		reg := metrics.NewRegistry()
		qT, err := shard.New(served.man, tcs, reg)
		if err != nil {
			return err
		}
		srvT, err := server.NewQuerier(tracingQuerier{qT}, t.labels, server.Config{Registry: reg})
		if err != nil {
			return err
		}
		tr = newTopTracer(r.rec, srvT, cores, clients())
	}
	l, err := t.serveLoop(served.srv, tr, ref.ix)
	if err != nil {
		return err
	}
	if r.trace {
		x := newSpanIndex(r.rec.snapshot())
		r.common(x, l)
		r.coreReport(x, tr)
		r.buildReport(served.st, loads, builds)
		r.layer["shard.call_fragment_us"] = x.dur("shard.fragment").pct(50)
		r.layer["shard.call_top_us"] = x.dur("shard.top").pct(50)
		r.layer["shard.wait_us"] = newDist(tr.waits()).pct(50)
		r.layer["shard.router_self_us"] = x.selfDur("querier").pct(50)
		if q := x.count("querier"); q > 0 {
			r.layer["shard.calls"] = float64(x.count("shard.fragment")+x.count("shard.top")) / float64(q)
		}
		r.layer["shard.imbalance"] = imbalance(served.man)
		r.layer["shard.split_s"] = median(splits)
	}
	return nil
}

// imbalance is the largest shard's index bytes over the mean.
func imbalance(m *shard.Manifest) float64 {
	var total, most int64
	for _, s := range m.Shards {
		total += s.Bytes
		most = max(most, s.Bytes)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(m.Shards)) / float64(total)
}

// coreCopy is ix as a core.Index, through its own serialization, so core
// entry points can be replayed on exactly the served data.
func coreCopy(ix *sling.Index, g *sling.Graph) (*core.Index, error) {
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		return nil, err
	}
	return core.ReadIndex(&buf, g)
}
