package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sling"
	"sling/internal/durable"
	"sling/internal/rng"
	"sling/internal/server"
)

// rw-dynamic: server.NewDynamic over sling.NewDynamic on the Slashdot
// stand-in, with a durable WAL (fsync off: the policy is the same on
// both sides of a comparison, and device flushes are not what is
// measured). One closed-loop reader sends GET /simrank with popular
// endpoints while one open-loop writer POSTs /update batches on a fixed
// schedule, half adding uniform random edges and half removing edges it
// added before. Crossing the rebuild threshold rebuilds in the
// background, which takes one of the two cores from the reader. It is
// the only workload with writes, rebuilds, the Monte Carlo fallback and
// the WAL.
const (
	dynGraph     = "Slashdot"
	dynThreshold = 500
	dynWalks     = 4096 // slingserver's default
	dynWorkers   = 1
	dynBatchOps  = 20
	dynInterval  = 200 * time.Millisecond
	// The writer and reader run this long before the measured window,
	// so the window opens with the first rebuild under way.
	dynWarmup     = 6 * time.Second
	dynCheckReads = 512
	dynPoll       = 10 * time.Millisecond
	dynAffected   = 50 * time.Millisecond
	dynSettle     = 120 * time.Second // longest wait for rebuilds to finish
)

// edgeKey packs a directed edge.
func edgeKey(u, v sling.NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// writeStream is the writer's pre-generated schedule of batches.
type writeStream struct {
	batches [][]sling.EdgeOp
	bodies  [][]byte
}

// genWrites draws nb batches over g: even slots add a uniform random
// edge that is absent, odd slots remove an edge an earlier add created
// (an add when there is none yet). Every op therefore applies.
func genWrites(r *rng.Source, g *sling.Graph, labels []int64, nb int) (*writeStream, error) {
	n := g.NumNodes()
	present := make(map[uint64]bool, g.NumEdges())
	g.Edges(func(from, to sling.NodeID) bool {
		present[edgeKey(from, to)] = true
		return true
	})
	var pool []uint64
	ws := &writeStream{}
	for b := 0; b < nb; b++ {
		ops := make([]sling.EdgeOp, 0, dynBatchOps)
		for j := 0; j < dynBatchOps; j++ {
			if j%2 == 1 && len(pool) > 0 {
				k := r.Intn(len(pool))
				e := pool[k]
				pool[k] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				delete(present, e)
				ops = append(ops, sling.EdgeOp{Add: false, From: sling.NodeID(e >> 32), To: sling.NodeID(uint32(e))})
				continue
			}
			for {
				u, v := uniformPair(r, n)
				if e := edgeKey(u, v); !present[e] {
					present[e] = true
					pool = append(pool, e)
					ops = append(ops, sling.EdgeOp{Add: true, From: u, To: v})
					break
				}
			}
		}
		body := make([]server.UpdateOp, len(ops))
		for j, op := range ops {
			from, to := labels[op.From], labels[op.To]
			body[j] = server.UpdateOp{Op: "remove", From: &from, To: &to}
			if op.Add {
				body[j].Op = "add"
			}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		ws.batches = append(ws.batches, ops)
		ws.bodies = append(ws.bodies, raw)
	}
	return ws, nil
}

// finalEdges is g's edge set after the first sent batches.
func (ws *writeStream) finalEdges(g *sling.Graph, sent int) []sling.Edge {
	set := make(map[uint64]bool, g.NumEdges())
	g.Edges(func(from, to sling.NodeID) bool {
		set[edgeKey(from, to)] = true
		return true
	})
	for _, ops := range ws.batches[:sent] {
		for _, op := range ops {
			if op.Add {
				set[edgeKey(op.From, op.To)] = true
			} else {
				delete(set, edgeKey(op.From, op.To))
			}
		}
	}
	edges := make([]sling.Edge, 0, len(set))
	for e := range set {
		edges = append(edges, sling.Edge{From: sling.NodeID(e >> 32), To: sling.NodeID(uint32(e))})
	}
	return edges
}

func clamp01(s float64) float64 { return min(max(s, 0), 1) }

// dynObs is what the poller saw of the dynamic layer. Only the poller
// writes it; it is read once the poller has stopped.
type dynObs struct {
	swaps     []dynSwap
	staleMax  int
	rebuildS  []float64
	walGrowth int64 // summed growth of the WAL between polls
	affected  []affSample
}

type dynSwap struct {
	at       time.Time
	included uint64 // TotalOps - StaleOps: ops the new epoch reflects
}

type affSample struct {
	at  time.Time
	set []bool
}

// poll samples Stats every dynPoll (and AffectedNodes every
// dynAffected when sampleAffected) until stop is closed.
func (o *dynObs) poll(dx *sling.DynamicIndex, stop <-chan struct{}, sampleAffected bool) {
	tick := time.NewTicker(dynPoll)
	defer tick.Stop()
	last := dx.Stats()
	var rebuildStart time.Time
	if last.RebuildRunning {
		rebuildStart = time.Now()
	}
	var lastAff time.Time
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		st := dx.Stats()
		if st.Epoch != last.Epoch {
			o.swaps = append(o.swaps, dynSwap{at: now, included: st.TotalOps - uint64(st.StaleOps)})
		}
		o.staleMax = max(o.staleMax, st.StaleOps)
		if st.RebuildRunning && !last.RebuildRunning {
			rebuildStart = now
		}
		if !st.RebuildRunning && last.RebuildRunning && !rebuildStart.IsZero() {
			o.rebuildS = append(o.rebuildS, now.Sub(rebuildStart).Seconds())
		}
		if g := st.Durable.WALBytes - last.Durable.WALBytes; g > 0 {
			o.walGrowth += g
		}
		last = st
		if sampleAffected && now.Sub(lastAff) >= dynAffected {
			lastAff = now
			set := make([]bool, st.Nodes)
			for _, v := range dx.AffectedNodes() {
				set[v] = true
			}
			o.affected = append(o.affected, affSample{at: now, set: set})
		}
	}
}

// nearestAffected returns the affected-node sample nearest to t.
func (o *dynObs) nearestAffected(t time.Time) []bool {
	best := -1
	var bestD time.Duration
	for i, s := range o.affected {
		d := s.at.Sub(t)
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return nil
	}
	return o.affected[best].set
}

// dynRead is one read the reader made.
type dynRead struct {
	at     time.Time
	lat    time.Duration
	u, v   sling.NodeID
	ok     bool
	traced bool
}

// dynWrite is one batch the writer sent.
type dynWrite struct {
	due, sent, acked time.Time
	cumApplied       uint64 // ops applied by this batch and all before it
}

func runRWDynamic(r *run) error {
	ctx := context.Background()
	edges, g, labels, err := r.standIn(dynGraph)
	if err != nil {
		return err
	}
	n := g.NumNodes()
	base := rng.New(r.seed)
	z := newZipf(base.Split(), rankByInDegree(g), zipfS)
	reads := make([][2]sling.NodeID, streamLen)
	for i := range reads {
		u, v := z.pair()
		reads[i] = [2]sling.NodeID{u, v}
	}
	window := time.Duration(r.seconds) * time.Second
	nb := int((dynWarmup+window)/dynInterval) + 1
	ws, err := genWrites(base.Split(), g, labels, nb)
	if err != nil {
		return err
	}
	readURL := func(i int64) string {
		p := reads[i%streamLen]
		return "/simrank?u=" + strconv.FormatInt(labels[p[0]], 10) + "&v=" + strconv.FormatInt(labels[p[1]], 10)
	}
	r.env.Params["readers"] = 1
	r.env.Params["keys"] = fmt.Sprintf("zipf(%g) endpoint pairs over in-degree rank", zipfS)
	r.env.Params["writer"] = fmt.Sprintf("%d ops every %s, open loop", dynBatchOps, dynInterval)
	r.env.Params["rebuild_threshold"] = dynThreshold
	r.env.Params["walks"] = dynWalks
	r.env.Params["build_workers"] = dynWorkers
	r.env.Params["wal"] = "durable, fsync off"
	r.env.Params["warmup_s"] = dynWarmup.Seconds()
	r.env.Params["setups"] = 2
	dopts := func(dir string) *sling.DynamicOptions {
		return &sling.DynamicOptions{
			RebuildThreshold: dynThreshold, NumWalks: dynWalks, Workers: dynWorkers,
			DurableDir: dir, DurableNoSync: true,
		}
	}

	type deployment struct {
		dx  *sling.DynamicIndex
		srv *server.Server
		dir string
	}
	var setups, loads []float64
	setup := func(i int, want *float64) (*deployment, error) {
		dir := filepath.Join(r.work, fmt.Sprintf("durable-%d", i))
		t0 := time.Now()
		g, labels, err := sling.LoadEdgeListFile(edges, false)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		dx, err := sling.NewDynamic(g, dopts(dir), r.buildOpts(dynWorkers)...)
		if err != nil {
			return nil, err
		}
		srv, err := server.NewDynamic(dx, labels, server.Config{})
		if err != nil {
			dx.Close()
			return nil, err
		}
		w := newRespWriter()
		serve(srv, w, newRequest(ctx, http.MethodGet, readURL(0), nil))
		var body pairBody
		if w.code != http.StatusOK || json.Unmarshal(w.body.Bytes(), &body) != nil {
			dx.Close()
			return nil, fmt.Errorf("first answer: http %d: %s", w.code, w.body.Bytes())
		}
		if want != nil && !sameBits(body.Score, *want) {
			dx.Close()
			return nil, fmt.Errorf("first answer %v, want %v", body.Score, *want)
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, t1.Sub(t0).Seconds())
		return &deployment{dx: dx, srv: srv, dir: dir}, nil
	}

	// Two set-ups: the first is closed again and only supplies the
	// reference for the second's first answer and the index size.
	logf("set-up 1/2 (reference)")
	ref, err := setup(1, nil)
	if err != nil {
		return err
	}
	want0, err := ref.dx.SimRank(ctx, reads[0][0], reads[0][1])
	if err != nil {
		return err
	}
	heap0 := liveHeap()
	logf("set-up 2/2")
	served, err := setup(2, &want0)
	if err != nil {
		return err
	}
	heap := int64(liveHeap()) - int64(heap0)
	dx, srv := served.dx, served.srv
	defer dx.Close()
	ref.dx.Close()
	// The initial epoch's serialized size, from the snapshot the
	// reference deployment wrote when it started.
	snap, err := durable.Open(durable.Options{Dir: ref.dir, ReadOnly: true})
	if err != nil {
		return err
	}
	if snap.Snapshot() == nil {
		snap.Close()
		return fmt.Errorf("no initial snapshot in %s", ref.dir)
	}
	r.e2e["index_bytes"] = float64(len(snap.Snapshot().Index))
	snap.Close()
	ref = nil
	r.e2e["setup_s"] = median(setups)
	r.e2e["heap_bytes"] = float64(heap)
	r.detail["setup_samples_s"] = setups

	// Traffic: poller, writer and reader, for the warm-up and the window.
	st0 := dx.Stats()
	obs := &dynObs{}
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		obs.poll(dx, stopPoll, r.trace)
	}()
	start := time.Now()
	winStart, winEnd := start.Add(dynWarmup), start.Add(dynWarmup+window)
	logf("serving %s: %s warm-up, then %ds measured", r.workload, dynWarmup, r.seconds)

	var writes []dynWrite
	var writeFails int64
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		w := newRespWriter()
		var cum uint64
		for b := 0; b < len(ws.bodies); b++ {
			due := start.Add(time.Duration(b) * dynInterval)
			if !due.Before(winEnd) {
				return
			}
			time.Sleep(time.Until(due))
			var root int32
			if r.trace {
				root = r.rec.begin("update", int64(-b-1), noParent, false)
			}
			sent := time.Now()
			serve(srv, w, newRequest(ctx, http.MethodPost, "/update", ws.bodies[b]))
			acked := time.Now()
			if r.trace {
				r.rec.end(root, int64(w.body.Len()))
			}
			var resp struct {
				Applied int `json:"applied"`
				Results []struct {
					Applied bool   `json:"applied"`
					Error   string `json:"error"`
				} `json:"results"`
			}
			ok := w.code == http.StatusOK && json.Unmarshal(w.body.Bytes(), &resp) == nil && resp.Applied == len(ws.batches[b])
			if ok {
				for _, res := range resp.Results {
					ok = ok && res.Applied && res.Error == ""
				}
			}
			if !ok {
				writeFails++
				r.chk.fail("update batch %d: http %d: %s", b, w.code, w.body.Bytes())
			}
			cum += uint64(resp.Applied)
			writes = append(writes, dynWrite{due: due, sent: sent, acked: acked, cumApplied: cum})
		}
	}()

	var rd []dynRead
	var readFails int64
	w := newRespWriter()
	for i := int64(0); time.Now().Before(winEnd); i++ {
		p := reads[i%streamLen]
		req := newRequest(ctx, http.MethodGet, readURL(i), nil)
		isTraced := r.trace && i%2 == 1
		var root int32
		if isTraced {
			root = r.rec.begin("server", i, noParent, false)
		}
		at := time.Now()
		d := serve(srv, w, req)
		if isTraced {
			r.rec.end(root, int64(w.body.Len()))
		}
		var body pairBody
		ok := w.code == http.StatusOK && json.Unmarshal(w.body.Bytes(), &body) == nil &&
			body.U == labels[p[0]] && body.V == labels[p[1]] && body.Score >= 0 && body.Score <= 1
		if !ok {
			readFails++
			r.chk.fail("read %d: http %d: %s", i, w.code, w.body.Bytes())
		}
		if isTraced {
			a := time.Now()
			if _, err := dx.SimRank(ctx, p[0], p[1]); err != nil {
				ok = false
			}
			r.rec.record("dynamic.read", i, root, true, a, time.Now(), 0)
		}
		if at.Before(winStart) {
			continue
		}
		rd = append(rd, dynRead{at: at, lat: d, u: p[0], v: p[1], ok: ok, traced: isTraced})
	}
	writerWG.Wait()
	sent := len(writes)

	// Settle: the writer has stopped; the reference is a fresh build of
	// the final edge set, run beside the last rebuild.
	final := ws.finalEdges(g, sent)
	var fresh *sling.Index
	var freshStats sling.BuildStats
	var freshBuild time.Duration
	var freshErr error
	var freshWG sync.WaitGroup
	freshWG.Add(1)
	go func() {
		defer freshWG.Done()
		t := time.Now()
		fresh, freshStats, freshErr = sling.BuildWithStats(sling.FromEdges(n, final), r.buildOpts(dynWorkers)...)
		freshBuild = time.Since(t)
	}()
	deadline := time.Now().Add(dynSettle)
	var st sling.DynamicStats
	for {
		st = dx.Stats()
		// A swap with the threshold still crossed re-triggers on its own.
		if !st.RebuildRunning && st.StaleOps < dynThreshold {
			break
		}
		if time.Now().After(deadline) {
			close(stopPoll)
			pollWG.Wait()
			freshWG.Wait()
			return fmt.Errorf("rebuilds did not settle within %s", dynSettle)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stopPoll)
	pollWG.Wait()
	thresholdSwaps := st.Epoch - st0.Epoch
	stEnd := st
	if st.StaleOps > 0 {
		if _, err := dx.Rebuild(); err != nil {
			freshWG.Wait()
			return fmt.Errorf("final rebuild: %w", err)
		}
	}
	freshWG.Wait()
	if freshErr != nil {
		return freshErr
	}
	if got := dx.Graph().NumEdges(); got != len(final) {
		r.chk.fail("final graph has %d edges, want %d", got, len(final))
	}
	for i := int64(0); i < dynCheckReads; i++ {
		p := reads[i]
		serve(srv, w, newRequest(ctx, http.MethodGet, readURL(i), nil))
		want, err := fresh.SimRank(ctx, p[0], p[1])
		if err != nil {
			return err
		}
		if w.code != http.StatusOK {
			r.chk.fail("check read %d: http %d", i, w.code)
			continue
		}
		r.chk.pair(w.body.Bytes(), labels[p[0]], labels[p[1]], clamp01(want))
	}

	// End-to-end: reads in the window.
	l := newLoop(window)
	for _, x := range rd {
		l.add(x.at.Sub(winStart), outcome{lat: x.lat, ok: x.ok, traced: x.traced})
	}
	r.report(l)
	r.attempted += int64(sent)
	r.failed += writeFails
	r.detail["threshold_rebuilds"] = thresholdSwaps
	r.detail["batches_sent"] = sent
	r.detail["read_failures"] = readFails

	if r.trace {
		x := newSpanIndex(r.rec.snapshot())
		r.common(x, l)
		var upd, lag []float64
		for _, wr := range writes {
			if wr.due.Before(winStart) {
				continue
			}
			upd = append(upd, float64(wr.acked.Sub(wr.due))/1e6)
			lag = append(lag, float64(wr.sent.Sub(wr.due))/1e6)
		}
		ud := newDist(upd)
		r.layer["update_p50_ms"] = ud.pct(50)
		r.layer["update_p99_ms"] = ud.pct(99)
		r.layer["loadgen.lag_ms"] = newDist(lag).pct(99)
		r.layer["dynamic.update_us"] = x.dur("update").pct(50)
		r.layer["freshness_p50_s"] = newDist(freshness(writes, obs.swaps)).pct(50)
		r.layer["dynamic.rebuilds"] = float64(thresholdSwaps)
		r.layer["dynamic.rebuild_s"] = median(obs.rebuildS)
		r.layer["dynamic.stale_ops_max"] = float64(obs.staleMax)
		var fb, cl []float64
		share := 0.0
		nsamp := 0
		for _, s := range obs.affected {
			if s.at.Before(winStart) {
				continue
			}
			k := 0
			for _, a := range s.set {
				if a {
					k++
				}
			}
			share += float64(k) / float64(n)
			nsamp++
		}
		for _, x := range rd {
			aff := obs.nearestAffected(x.at)
			if aff != nil && (aff[x.u] || aff[x.v]) {
				fb = append(fb, us(x.lat))
			} else {
				cl = append(cl, us(x.lat))
			}
		}
		if nsamp > 0 {
			r.layer["dynamic.affected_share"] = share / float64(nsamp)
		}
		if len(rd) > 0 {
			r.layer["dynamic.fallback_share"] = float64(len(fb)) / float64(len(rd))
		}
		r.layer["dynamic.fallback_read_us"] = newDist(fb).pct(50)
		r.layer["dynamic.clean_read_us"] = newDist(cl).pct(50)
		ops := stEnd.TotalOps - st0.TotalOps
		r.layer["durable.appends"] = float64(stEnd.Durable.Appends - st0.Durable.Appends)
		r.layer["durable.snapshots"] = float64(stEnd.Durable.SnapshotsWritten - st0.Durable.SnapshotsWritten)
		if ops > 0 {
			r.layer["durable.wal_bytes_per_op"] = float64(obs.walGrowth) / float64(ops)
		}
		r.layer["graph.load_s"] = median(loads)
		r.layer["core.build_s"] = freshBuild.Seconds()
		r.layer["core.build_walk_pairs"] = float64(freshStats.WalkPairs)
		r.layer["core.build_hp_pushes"] = float64(freshStats.HPPushes)
		r.layer["core.build_entries"] = float64(freshStats.Entries)
		r.layer["core.build_dropped"] = float64(freshStats.Dropped)
	}
	return nil
}

// freshness is, for every batch a swap observed before the rebuilds
// settled included, the time from its acknowledgement to that swap.
// Batches no observed swap included are left out.
func freshness(writes []dynWrite, swaps []dynSwap) []float64 {
	var out []float64
	for _, wr := range writes {
		for _, s := range swaps {
			if s.included >= wr.cumApplied && s.at.After(wr.acked) {
				out = append(out, s.at.Sub(wr.acked).Seconds())
				break
			}
		}
	}
	return out
}
