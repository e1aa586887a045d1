package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"sling"
	"sling/internal/catalog"
	"sling/internal/core"
	"sling/internal/rng"
	"sling/internal/server"
)

// pair-uniform: GET /g/{id}/simrank through the catalog to one disk +
// mmap entry over a prebuilt SLIX file. Endpoints are uniform with u != v
// (the paper's Fig. 1 workload), so keys almost never repeat. It is the
// cheapest request: HTTP, catalog acquire and quota, and the mmap fetch
// are most of it. Its set-up is a restart, not a build.
const (
	pairGraph    = "Google"
	pairID       = "google"
	pairRestarts = 7 // one restart is ~70 ms, too short to read alone
	// The quota is consulted on every request but never throttles.
	pairQuotaQPS = 1e8
)

func runPairUniform(r *run) error {
	ctx := context.Background()
	edges, g, labels, err := r.standIn(pairGraph)
	if err != nil {
		return err
	}
	n := g.NumNodes()
	rs := rng.New(r.seed)
	pairs := make([][2]sling.NodeID, streamLen)
	for i := range pairs {
		u, v := uniformPair(rs, n)
		pairs[i] = [2]sling.NodeID{u, v}
	}
	url := func(i int64) string {
		p := pairs[i%streamLen]
		return fmt.Sprintf("/g/%s/simrank?u=%d&v=%d", pairID, labels[p[0]], labels[p[1]])
	}
	nc := clients()
	r.env.Params["clients"] = nc
	r.env.Params["keys"] = "uniform pairs, u != v"
	r.env.Params["deployment"] = "catalog, disk + mmap SLIX"
	r.env.Params["restarts"] = pairRestarts

	// The served file is built once with the run's seed; the in-memory
	// index that wrote it is the reference answers are checked against.
	logf("building the %s index", pairGraph)
	ref, _, err := sling.BuildWithStats(g, r.buildOpts(2)...)
	if err != nil {
		return err
	}
	slix := filepath.Join(r.work, pairID+".slix")
	if err := ref.Save(slix); err != nil {
		return err
	}
	m := catalog.Manifest{
		Default: pairID,
		Graphs: []catalog.GraphSpec{{
			ID: pairID, Graph: edges, Mode: "disk", Index: slix, Mmap: true,
			MaxQPS: pairQuotaQPS, Burst: int(pairQuotaQPS),
		}},
	}
	want0, err := ref.SimRank(ctx, pairs[0][0], pairs[0][1])
	if err != nil {
		return err
	}

	// Restart: a fresh catalog and server; the first request lazily
	// loads the edge list and maps the SLIX file.
	var cat *catalog.Catalog
	var srv *server.Server
	var setups, opens, loads, coreOpens []float64
	var heap int64
	for i := 0; i < pairRestarts; i++ {
		if cat != nil {
			cat.Close()
			cat, srv = nil, nil
		}
		last := i == pairRestarts-1
		var base uint64
		if last {
			base = liveHeap()
		}
		t0 := time.Now()
		c, err := catalog.New(m, nil)
		if err != nil {
			return err
		}
		s, err := server.NewCatalog(c, server.Config{})
		if err != nil {
			return err
		}
		if r.trace {
			ta := time.Now()
			h, err := c.Acquire(ctx, pairID)
			if err != nil {
				return err
			}
			h.Release()
			opens = append(opens, time.Since(ta).Seconds())
		}
		w := newRespWriter()
		serve(s, w, newRequest(ctx, http.MethodGet, url(0), nil))
		if w.code != http.StatusOK {
			return fmt.Errorf("first answer after restart: http %d: %s", w.code, w.body.Bytes())
		}
		var first checker
		first.pair(w.body.Bytes(), labels[pairs[0][0]], labels[pairs[0][1]], want0)
		if !first.ok() {
			return fmt.Errorf("first answer after restart is wrong: %v", first.notes)
		}
		setups = append(setups, time.Since(t0).Seconds())
		cat, srv = c, s
		if last {
			heap = int64(liveHeap()) - int64(base)
		}
		if r.trace {
			// The catalog loads the graph and opens the index itself;
			// replay both at their entry points.
			t := time.Now()
			if _, _, err := sling.LoadEdgeListFile(edges, false); err != nil {
				return err
			}
			loads = append(loads, time.Since(t).Seconds())
			t = time.Now()
			di, err := core.OpenDiskIndexMmap(slix, g)
			if err != nil {
				return err
			}
			coreOpens = append(coreOpens, time.Since(t).Seconds())
			di.Close()
		}
	}
	defer cat.Close()
	r.e2e["setup_s"] = median(setups)
	r.e2e["heap_bytes"] = float64(heap)
	size, err := fileSize(slix)
	if err != nil {
		return err
	}
	r.e2e["index_bytes"] = float64(size)
	r.detail["setup_samples_s"] = setups

	var tr *pairTracer
	if r.trace {
		if tr, err = newPairTracer(r, cat, slix, g, nc); err != nil {
			return err
		}
		defer tr.close()
	}
	kept := make(samples, nc)
	ws := make([]*respWriter, nc)
	for c := range ws {
		ws[c] = newRespWriter()
	}
	logf("serving %s for %ds with %d clients", r.workload, r.seconds, nc)
	l := closedLoop(nc, time.Duration(r.seconds)*time.Second, func(c int, i int64) outcome {
		w := ws[c]
		if tr != nil && i%2 == 1 {
			p := pairs[i%streamLen]
			return tr.request(c, i, srv, w, url(i), p[0], p[1])
		}
		d := serve(srv, w, newRequest(ctx, http.MethodGet, url(i), nil))
		ok := w.code == http.StatusOK
		if ok {
			kept.keep(c, i, w)
		}
		return outcome{lat: d, ok: ok}
	})
	r.report(l)

	for _, s := range kept.all() {
		p := pairs[s.i%streamLen]
		want, err := ref.SimRank(ctx, p[0], p[1])
		if err != nil {
			return err
		}
		r.chk.pair(s.body, labels[p[0]], labels[p[1]], want)
	}

	if r.trace {
		x := newSpanIndex(r.rec.snapshot())
		r.common(x, l)
		r.layer["catalog.acquire_us"] = x.dur("catalog").pct(50)
		r.layer["catalog.open_s"] = median(opens)
		r.layer["catalog.throttled"] = float64(cat.Stats().Throttled)
		r.layer["querier.self_us"] = x.selfDur("querier").pct(50)
		frag := x.dur("probe.fragment")
		r.layer["core.fragment_us"] = frag.pct(50)
		r.layer["core.fragment_p99_us"] = frag.pct(99)
		r.layer["core.fragment_entries"] = x.meanN("probe.fragment")
		r.layer["core.fetch_us"] = newDist(tr.fetchDiffs()).pct(50)
		r.layer["core.open_s"] = median(coreOpens)
		r.layer["core.join_us"] = x.dur("core.join").pct(50)
		r.layer["graph.load_s"] = median(loads)
	}
	return nil
}

// pairTracer issues pair-uniform's traced requests. The catalog calls
// the backend, and the facade calls core, by themselves, so every layer
// below the server is replayed at its public entry point once the timed
// request is done: catalog Acquire/Querier/Release, the facade's
// SimRank on the catalog's own backend, and core's DiskIndex.FragmentOf
// and JoinScoreD on a mapping of the same file. Index.FragmentOf on an
// in-memory copy is timed beside it as a probe, outside the request's
// tree: the difference is the cost of the fetch.
type pairTracer struct {
	rec   *recorder
	cat   *catalog.Catalog
	held  *catalog.Handle
	disk  *core.DiskIndex
	mem   *core.Index
	ds    []*core.DiskScratch
	ms    []*core.Scratch
	diffs [][]float64
}

func newPairTracer(r *run, cat *catalog.Catalog, slix string, g *sling.Graph, nc int) (*pairTracer, error) {
	held, err := cat.Acquire(context.Background(), pairID)
	if err != nil {
		return nil, err
	}
	t := &pairTracer{rec: r.rec, cat: cat, held: held, diffs: make([][]float64, nc)}
	if t.disk, err = core.OpenDiskIndexMmap(slix, g); err != nil {
		held.Release()
		return nil, err
	}
	if t.mem, err = core.LoadFile(slix, g); err != nil {
		t.close()
		return nil, err
	}
	for c := 0; c < nc; c++ {
		t.ds = append(t.ds, t.disk.NewScratch())
		t.ms = append(t.ms, t.mem.NewScratch())
	}
	return t, nil
}

func (t *pairTracer) close() {
	t.held.Release()
	if t.disk != nil {
		t.disk.Close()
	}
}

func (t *pairTracer) request(c int, i int64, srv http.Handler, w *respWriter, url string, u, v sling.NodeID) outcome {
	ctx := context.Background()
	req := newRequest(ctx, http.MethodGet, url, nil)
	root := t.rec.begin("server", i, noParent, false)
	d := serve(srv, w, req)
	t.rec.end(root, int64(w.body.Len()))
	if w.code != http.StatusOK {
		return outcome{lat: d, ok: false, traced: true}
	}

	a := time.Now()
	h, err := t.cat.Acquire(ctx, pairID)
	if err != nil {
		return outcome{lat: d, ok: false, traced: true}
	}
	_ = h.Querier()
	h.Release()
	t.rec.record("catalog", i, root, true, a, time.Now(), 0)

	a = time.Now()
	_, err = t.held.Querier().SimRank(ctx, u, v)
	q := t.rec.record("querier", i, root, true, a, time.Now(), 0)
	if err != nil {
		return outcome{lat: d, ok: false, traced: true}
	}
	var frags [2]struct {
		k    []uint64
		v, d []float64
	}
	for j, x := range []sling.NodeID{u, v} {
		a = time.Now()
		k, vals, dv, err := t.disk.FragmentOf(x, t.ds[c])
		b := time.Now()
		if err != nil {
			return outcome{lat: d, ok: false, traced: true}
		}
		t.rec.record("core.fragment_disk", i, q, true, a, b, int64(len(k)))
		frags[j].k, frags[j].v, frags[j].d = k, vals, dv
		m0 := time.Now()
		mk, _, _ := t.mem.FragmentOf(x, t.ms[c])
		m1 := time.Now()
		t.rec.record("probe.fragment", i, noParent, false, m0, m1, int64(len(mk)))
		t.diffs[c] = append(t.diffs[c], us(b.Sub(a))-us(m1.Sub(m0)))
	}
	a = time.Now()
	core.JoinScoreD(frags[0].k, frags[0].v, frags[0].d, frags[1].k, frags[1].v)
	t.rec.record("core.join", i, q, true, a, time.Now(), 0)
	return outcome{lat: d, ok: true, traced: true}
}

func (t *pairTracer) fetchDiffs() []float64 {
	var out []float64
	for _, d := range t.diffs {
		out = append(out, d...)
	}
	return out
}
