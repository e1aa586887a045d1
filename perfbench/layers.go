package main

// spanIndex groups a run's spans by name for the per-layer metrics.
type spanIndex struct {
	spans  []span
	self   []int64
	byName map[string][]int32
}

func newSpanIndex(spans []span) *spanIndex {
	x := &spanIndex{spans: spans, self: selfTimes(spans), byName: map[string][]int32{}}
	for _, s := range spans {
		x.byName[s.name] = append(x.byName[s.name], s.id)
	}
	return x
}

// dur is the distribution of the named spans' durations in µs.
func (x *spanIndex) dur(name string) dist {
	var v []float64
	for _, id := range x.byName[name] {
		v = append(v, float64(x.spans[id].dur())/1e3)
	}
	return newDist(v)
}

// selfDur is the distribution of the named spans' self times in µs.
func (x *spanIndex) selfDur(name string) dist {
	var v []float64
	for _, id := range x.byName[name] {
		v = append(v, float64(x.self[id])/1e3)
	}
	return newDist(v)
}

// meanN is the mean count the named spans carry.
func (x *spanIndex) meanN(name string) float64 {
	ids := x.byName[name]
	if len(ids) == 0 {
		return 0
	}
	var s float64
	for _, id := range ids {
		s += float64(x.spans[id].n)
	}
	return s / float64(len(ids))
}

// count is how many spans carry the name.
func (x *spanIndex) count(name string) int { return len(x.byName[name]) }

// common records the per-layer metrics every traced workload has: the
// server's self time and response size, the tracing overhead against
// the untraced requests of the same run, and the self-time accounting.
func (r *run) common(x *spanIndex, l *loop) {
	r.layer["server.self_us"] = x.selfDur("server").pct(50)
	r.layer["server.resp_bytes"] = x.meanN("server")
	untraced := l.untraced()
	r.layer["trace.overhead_us"] = newDist(l.tracedLat).pct(50) - newDist(untraced).pct(50)
	gap := selfSumGap(x.spans, x.self, "server")
	r.layer["trace.self_sum_gap"] = gap
	r.detail["traced_requests"] = len(l.tracedLat)
	r.detail["untraced_requests"] = len(untraced)
	if gap > selfSumTolerance || gap < -selfSumTolerance {
		logf("warning: self times miss the traced latency by %.1f%% (tolerance %.0f%%)", 100*gap, 100*selfSumTolerance)
	}
}

// selfSumTolerance bounds how far the summed self times of a traced
// request may stray from its latency. Replayed spans re-run a layer's
// work after the request, so they stand in for the live work only
// approximately; a replay slower than the live call leaves its parent a
// negative self time, clamped to zero, and the sum overshoots.
const selfSumTolerance = 0.25
