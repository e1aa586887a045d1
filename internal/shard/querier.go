package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"sling"
	"sling/internal/core"
	"sling/internal/metrics"
)

// Instrument names for the router's shard calls. Every series carries a
// "shard" label with the shard's decimal ID.
const (
	// MetricFanout is the per-shard call latency histogram.
	MetricFanout = "sling_shard_fanout_seconds"
	// MetricErrors counts failed per-shard calls, including answers the
	// router rejects as malformed.
	MetricErrors = "sling_shard_errors_total"
)

// Querier routes sling.Querier calls to shards by node ownership:
//
//   - SimRank fetches the two endpoints' fragments from their owner
//     shards and merge-joins them at the router — a two-shard join.
//   - SingleSource, TopK and SourceTop go to u's owner alone. The router
//     fetches u's fragment from the owner and hands it back to the same
//     owner's SourceSlice or TopSlice over [0, n). Propagation reads only
//     the graph, d̃ and the parameters, which every shard holds in full,
//     so the owner answers for the whole graph with one propagation, and
//     the router returns that answer as is once its shape checks out.
//   - SingleSourceBatch serves its sources one at a time, grouped by
//     owner shard, each the way SingleSource serves it, observing ctx
//     between units.
//
// Each shard runs the unsharded index's query code, so answers are
// bitwise-identical to the unsharded reference.
//
// The zero Querier is not valid; use New.
type Querier struct {
	man     *Manifest
	clients []Client
	n       int
	fanout  []*metrics.Histogram
	errs    []*metrics.Counter
}

var _ sling.Querier = (*Querier)(nil)

// New validates the manifest against the client set and returns the
// router. reg receives the per-shard call instruments (nil for a private
// registry). The Querier takes ownership of the clients: Close closes
// them all.
func New(m *Manifest, clients []Client, reg *metrics.Registry) (*Querier, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(clients) != len(m.Shards) {
		return nil, fmt.Errorf("shard: %d clients for %d shards", len(clients), len(m.Shards))
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	q := &Querier{
		man:     m,
		clients: clients,
		n:       m.Nodes,
		fanout:  make([]*metrics.Histogram, len(clients)),
		errs:    make([]*metrics.Counter, len(clients)),
	}
	for i := range clients {
		id := metrics.L("shard", strconv.Itoa(i))
		q.fanout[i] = reg.Histogram(MetricFanout, "Latency of the router's per-shard calls.", metrics.LatencyBuckets, id)
		q.errs[i] = reg.Counter(MetricErrors, "Failed or malformed per-shard calls.", id)
	}
	return q, nil
}

// shardOf returns the index of the shard owning node u.
func (q *Querier) shardOf(u sling.NodeID) int {
	return sort.Search(len(q.man.Shards), func(i int) bool {
		return q.man.Shards[i].Hi > int(u)
	})
}

func (q *Querier) checkNode(u sling.NodeID) error {
	if int(u) < 0 || int(u) >= q.n {
		return fmt.Errorf("%w: node %d not in [0,%d)", sling.ErrNodeRange, u, q.n)
	}
	return nil
}

func (q *Querier) checkNodes(us []sling.NodeID) error {
	for _, u := range us {
		if err := q.checkNode(u); err != nil {
			return err
		}
	}
	return nil
}

// groupByShard buckets source indexes by owner shard, so batch fragment
// fetches hit shards in locality order.
func (q *Querier) groupByShard(us []sling.NodeID) [][]int {
	byShard := make([][]int, len(q.clients))
	for i, u := range us {
		s := q.shardOf(u)
		byShard[s] = append(byShard[s], i)
	}
	return byShard
}

// observe records one shard call's latency and outcome.
func (q *Querier) observe(shard int, start time.Time, err error) {
	q.fanout[shard].ObserveSince(start)
	if err != nil {
		q.errs[shard].Inc()
	}
}

// fragment fetches u's fragment from its owner shard s. A fragment that
// is not u's, or whose three columns differ in length, is an error: the
// router-side join indexes the columns in lockstep.
func (q *Querier) fragment(ctx context.Context, s int, u sling.NodeID) (*sling.Fragment, error) {
	start := time.Now()
	f, err := q.clients[s].Fragment(ctx, u)
	if err == nil && (f == nil || f.Node != u || len(f.Vals) != len(f.Keys) || len(f.DVals) != len(f.Keys)) {
		err = fmt.Errorf("shard %d answered a malformed fragment for node %d", s, u)
	}
	q.observe(s, start, err)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// SimRank joins the two endpoints' fragments at the router.
func (q *Querier) SimRank(ctx context.Context, u, v sling.NodeID) (float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return 0, err
	}
	if err := q.checkNode(u); err != nil {
		return 0, err
	}
	if err := q.checkNode(v); err != nil {
		return 0, err
	}
	fu, err := q.fragment(ctx, q.shardOf(u), u)
	if err != nil {
		return 0, err
	}
	fv := fu
	if u != v {
		if fv, err = q.fragment(ctx, q.shardOf(v), v); err != nil {
			return 0, err
		}
	}
	return sling.JoinFragments(fu, fv), nil
}

// singleSource has u's owner propagate u's fragment over the whole graph
// and return the full score vector, copied into out when it has
// capacity n.
func (q *Querier) singleSource(ctx context.Context, u sling.NodeID, out []float64) ([]float64, error) {
	s := q.shardOf(u)
	f, err := q.fragment(ctx, s, u)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	scores, err := q.clients[s].SourceSlice(ctx, f, 0, q.n)
	if err == nil && len(scores) != q.n {
		err = fmt.Errorf("shard %d returned %d scores for %d nodes", s, len(scores), q.n)
	}
	q.observe(s, start, err)
	if err != nil {
		return nil, err
	}
	if cap(out) < q.n {
		return scores, nil
	}
	out = out[:q.n]
	copy(out, scores)
	return out, nil
}

func (q *Querier) SingleSource(ctx context.Context, u sling.NodeID, out []float64) ([]float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := q.checkNode(u); err != nil {
		return nil, err
	}
	return q.singleSource(ctx, u, out)
}

// SingleSourceBatch validates every source first, then serves them one
// at a time, grouped by owner shard (each source goes to its owner
// alone), observing ctx between units.
func (q *Querier) SingleSourceBatch(ctx context.Context, us []sling.NodeID) ([][]float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := q.checkNodes(us); err != nil {
		return nil, err
	}
	rows := make([][]float64, len(us))
	for _, idxs := range q.groupByShard(us) {
		for _, i := range idxs {
			if err := core.CtxErr(ctx); err != nil {
				return nil, err
			}
			row, err := q.singleSource(ctx, us[i], nil)
			if err != nil {
				return nil, err
			}
			rows[i] = row
		}
	}
	return rows, nil
}

// top has u's owner select the k best nodes of the whole graph other
// than skip from u's fragment. skip < 0 keeps every node.
func (q *Querier) top(ctx context.Context, u sling.NodeID, k int, skip sling.NodeID) ([]sling.Scored, error) {
	s := q.shardOf(u)
	f, err := q.fragment(ctx, s, u)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	top, err := q.clients[s].TopSlice(ctx, f, k, skip, 0, q.n)
	if err == nil {
		err = q.checkTop(s, top, k, skip)
	}
	q.observe(s, start, err)
	if err != nil {
		return nil, err
	}
	return top, nil
}

// checkTop rejects a top list shard s's selection could not have
// produced: more than k entries, a node outside the graph or equal to
// skip, or entries out of best-first order.
func (q *Querier) checkTop(s int, top []sling.Scored, k int, skip sling.NodeID) error {
	if len(top) > k {
		return fmt.Errorf("shard %d returned %d top entries for k=%d", s, len(top), k)
	}
	for i, e := range top {
		if e.Node < 0 || int(e.Node) >= q.n || e.Node == skip {
			return fmt.Errorf("shard %d top entry %d names node %d (n=%d, skip=%d)", s, i, e.Node, q.n, skip)
		}
		if i > 0 && !e.WorseThan(top[i-1]) {
			return fmt.Errorf("shard %d top entry %d is out of order", s, i)
		}
	}
	return nil
}

func (q *Querier) TopK(ctx context.Context, u sling.NodeID, k int) ([]sling.Scored, error) {
	if k <= 0 {
		return nil, nil
	}
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := q.checkNode(u); err != nil {
		return nil, err
	}
	return q.top(ctx, u, k, u)
}

func (q *Querier) SourceTop(ctx context.Context, u sling.NodeID, limit int) ([]sling.Scored, error) {
	if limit <= 0 {
		return nil, nil
	}
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := q.checkNode(u); err != nil {
		return nil, err
	}
	return q.top(ctx, u, limit, -1)
}

// Meta reports the deployment from the manifest; Bytes is the summed
// per-shard index footprint.
func (q *Querier) Meta() sling.QuerierMeta {
	var bytes int64
	for _, s := range q.man.Shards {
		bytes += s.Bytes
	}
	return sling.QuerierMeta{
		Name:  "sharded",
		Nodes: q.n,
		C:     q.man.C,
		Eps:   q.man.Eps,
		Bytes: bytes,
	}
}

// Close closes every shard client and returns the errors joined.
func (q *Querier) Close() error {
	var errs []error
	for _, c := range q.clients {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
