// Package dynamic layers edge updates on top of a static SLING index,
// opening the serving scenario static indexes miss: production graphs
// mutate while queries keep arriving.
//
// A Dynamic index wraps a built core.Index and accepts AddEdge/RemoveEdge
// while serving. Updates are tracked as an affected-node frontier: an edge
// op on (u, v) changes v's in-neighborhood, so every node within forward
// distance t of v (t the walk truncation depth) has a changed reverse-walk
// distribution and can no longer trust the static index. Queries touching
// affected nodes fall back to fresh coupled Monte Carlo estimation on the
// mutated graph (the internal/mc coupling, Section 3.2 of the paper);
// queries on unaffected nodes keep hitting the fast static index, whose
// answers for them are still within the paper's ε guarantee because their
// walk distributions up to depth t are unchanged and the tail beyond t
// carries at most c^(t+1)/(1−c) ≤ ε/2 of meeting probability.
//
// A background rebuilder (threshold-triggered or manual) rebuilds the full
// index off the mutated graph and atomically swaps it in as a new epoch:
// queries are double-buffered across the swap with zero downtime, and the
// old epoch is drained via refcount so operators can observe when no
// in-flight query still reads it. After a rebuild with no concurrent
// updates the Dynamic index answers exactly — byte-identically — like a
// fresh core.Build of the mutated graph with the same options.
//
// All scores returned by Dynamic are clamped into [0, 1]: true SimRank
// lives there, and the serving contract should not leak the ±ε estimation
// overshoot of the underlying index.
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sling/internal/core"
	"sling/internal/durable"
	"sling/internal/graph"
	"sling/internal/mc"
)

// ErrClosed is returned by updates and rebuilds after Close.
var ErrClosed = errors.New("dynamic: index closed")

// Op is one edge mutation: Add inserts From -> To, otherwise the op
// removes it.
type Op struct {
	Add      bool
	From, To graph.NodeID
}

// OpResult reports what one Op did. Applied is false when the op was a
// no-op (adding an existing edge, removing a missing one) or invalid, in
// which case Err says why.
type OpResult struct {
	Applied bool
	Err     error
}

// Options configures New. The zero value builds with the paper's defaults,
// derives the ε/δ-guaranteed Monte Carlo walk count, and never rebuilds in
// the background (rebuilds are manual via Rebuild/TriggerRebuild).
type Options struct {
	// Build configures the initial core.Build and every rebuild. Rebuild
	// determinism — and the rebuild-equivalence guarantee — come from
	// reusing these options (including Seed) verbatim.
	Build core.Options
	// RebuildThreshold is the number of applied edge ops that triggers a
	// background rebuild. 0 disables automatic rebuilds.
	RebuildThreshold int
	// NumWalks is the per-query Monte Carlo walk count for affected-node
	// estimation. 0 derives the count guaranteeing ε accuracy with
	// probability 1−δ (δ = 0.01), which is large; serving deployments
	// usually set an explicit budget.
	NumWalks int
	// Depth overrides the walk truncation / staleness frontier depth t.
	// 0 derives the smallest t with c^(t+1)/(1−c) ≤ ε/2, so truncation
	// costs at most half the error budget.
	Depth int
	// Workers bounds SingleSourceBatch fan-out. Default GOMAXPROCS.
	Workers int
	// Seed drives the coupled Monte Carlo transitions. 0 derives a stream
	// distinct from Build.Seed.
	Seed uint64
	// Durable, when non-nil, backs the index with a write-ahead log and
	// snapshots in Durable.Dir: every applied batch is journaled before it
	// is acknowledged, each rebuild's epoch swap writes a snapshot, and
	// Restore reconstructs the exact pre-crash state. New requires a fresh
	// directory; existing state is reopened with Restore.
	Durable *durable.Options
}

// generation is one index epoch: an immutable core.Index (over the graph
// it was built from) plus its scratch pool and the refcount that tracks
// in-flight queries for drain accounting after a swap.
type generation struct {
	num  uint64
	ix   *core.Index
	pool *core.ScratchPool

	refs    atomic.Int64
	retired atomic.Bool
	drained atomic.Bool
}

// view is the atomically-published serving state: the current generation,
// the current (possibly mutated) graph, and the affected-node frontier
// relative to the generation's base graph. Views are immutable; every
// update batch and every swap publishes a fresh one. The view's CSR is
// the tier's only copy of the current edge set.
type view struct {
	gen          *generation
	g            *graph.Graph
	affected     []bool  // nil when no op is pending
	affectedList []int32 // ascending node IDs with affected[v] == true
	staleOps     int     // applied ops not yet reflected in gen.ix
}

// clean reports whether v can be served from the static index.
func (w *view) clean(v graph.NodeID) bool {
	return w.affected == nil || !w.affected[v]
}

// Dynamic is an updatable SimRank index. Queries are safe for arbitrary
// concurrent use and never block on updates or rebuilds; updates are
// serialized internally.
type Dynamic struct {
	n        int
	c        float64
	nw       int
	depth    int
	seed     uint64
	workers  int
	thresh   int
	buildOpt core.Options
	pow      []float64 // pow[l] = c^l, l in [0, depth]

	// The state is (generation, pending ops, published CSR): cur's CSR is
	// the generation's base graph with pending applied, and pending alone
	// records staleness (its targets seed the affected frontier).
	cur atomic.Pointer[view]

	// mu guards pending and the WAL and serializes view publication
	// (queries never take it).
	mu      sync.Mutex
	pending []Op         // applied ops the serving index does not reflect, in order
	wal     *durable.Log // nil without Options.Durable

	rebuildMu  sync.Mutex // serializes rebuilds
	rebuilding atomic.Bool
	running    atomic.Bool
	closed     atomic.Bool

	totalOps    atomic.Uint64
	rebuilds    atomic.Uint64
	drainedGens atomic.Uint64

	est sync.Pool // *ssScratch
}

// New builds the initial index over g and wraps it for updates. With
// o.Durable set the directory must not already hold state
// (ErrStateExists — reopen existing state with Restore): the built index
// becomes the initial snapshot, anchoring the WAL every later batch is
// journaled to.
func New(g *graph.Graph, o Options) (*Dynamic, error) {
	var wal *durable.Log
	if o.Durable != nil {
		var err error
		wal, err = durable.Open(*o.Durable)
		if err != nil {
			return nil, err
		}
		if wal.Snapshot() != nil || wal.LastLSN() > 0 {
			wal.Close()
			return nil, ErrStateExists
		}
	}
	ix, err := core.Build(g, &o.Build)
	if err != nil {
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	d := newDynamic(g, ix, o)
	if wal != nil {
		d.wal = wal
		d.mu.Lock()
		_, err := d.snapshotLocked()
		d.mu.Unlock()
		if err != nil {
			wal.Close()
			return nil, fmt.Errorf("dynamic: writing initial snapshot: %w", err)
		}
	}
	return d, nil
}

// newDynamic wraps an already-built index (a fresh build or a restored
// snapshot) with the update machinery.
func newDynamic(g *graph.Graph, ix *core.Index, o Options) *Dynamic {
	c, eps := ix.C(), ix.Eps()
	d := &Dynamic{
		n:        g.NumNodes(),
		c:        c,
		buildOpt: o.Build,
		thresh:   o.RebuildThreshold,
	}
	d.depth = o.Depth
	if d.depth <= 0 {
		d.depth = DeriveDepth(eps, c)
	}
	d.nw = o.NumWalks
	if d.nw <= 0 {
		d.nw = mc.DeriveNumWalks(eps, 0.01, d.n)
	}
	d.seed = o.Seed
	if d.seed == 0 {
		d.seed = o.Build.Seed ^ 0x9e3779b97f4a7c15
	}
	d.workers = o.Workers
	if d.workers <= 0 {
		d.workers = runtime.GOMAXPROCS(0)
	}
	d.pow = make([]float64, d.depth+1)
	for l := 0; l <= d.depth; l++ {
		d.pow[l] = math.Pow(c, float64(l))
	}
	gen := &generation{num: 1, ix: ix, pool: ix.NewScratchPool()}
	d.cur.Store(&view{gen: gen, g: g})
	d.est.New = func() interface{} { return newSSScratch(d.n) }
	return d
}

// DeriveDepth returns the smallest truncation depth t whose ignored
// meeting-probability tail Σ_{l>t} c^l = c^(t+1)/(1−c) is at most eps/2.
func DeriveDepth(eps, c float64) int {
	t := int(math.Ceil(math.Log(eps*(1-c)/2)/math.Log(c))) - 1
	if t < 1 {
		t = 1
	}
	return t
}

func edgeKey(from, to graph.NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// AddEdge inserts the directed edge u -> v. It reports whether the graph
// changed (false when the edge already existed) and errors on node IDs
// outside [0, NumNodes) — the node set is fixed at New.
func (d *Dynamic) AddEdge(u, v graph.NodeID) (bool, error) {
	return d.applyOne(Op{Add: true, From: u, To: v})
}

// RemoveEdge deletes the directed edge u -> v. It reports whether the
// graph changed (false when the edge did not exist) and errors on node
// IDs outside [0, NumNodes).
func (d *Dynamic) RemoveEdge(u, v graph.NodeID) (bool, error) {
	return d.applyOne(Op{From: u, To: v})
}

func (d *Dynamic) applyOne(op Op) (bool, error) {
	res, _, err := d.Apply([]Op{op})
	if err != nil {
		return false, err
	}
	return res[0].Applied, res[0].Err
}

// Apply executes a batch of edge ops atomically with respect to queries:
// one new graph snapshot and one recomputed affected frontier cover the
// whole batch. Invalid ops fail individually in the returned results;
// the batch-level error is non-nil only when the index is closed or when
// a durable index fails to journal the batch — in both cases no op was
// applied.
//
// Each op is decided against the published CSR plus the ops staged
// before it; the ops that change the edge set join the pending ops, and
// the CSR they yield is published on the same generation.
//
// On a durable index the batch is journaled before any state mutates
// (journal-before-apply): an acknowledged op is on disk before it is
// visible to any query, so Restore can never miss one.
//
// Publication cost is per batch, not per op: every batch with at least
// one applied op rebuilds the CSR snapshot (O(m log m)) and re-runs the
// frontier BFS. High-rate updaters on large graphs should batch their
// ops (as POST /update does) rather than loop over AddEdge.
func (d *Dynamic) Apply(ops []Op) ([]OpResult, int, error) {
	if d.closed.Load() {
		return nil, 0, ErrClosed
	}
	res := make([]OpResult, len(ops))
	d.mu.Lock()
	// Stage first: decide every op against an overlay on the published
	// graph without touching it, so a journaling failure leaves the index
	// exactly as it was.
	st := newStage(d.cur.Load().g)
	for i, op := range ops {
		res[i].Applied, res[i].Err = st.decide(op)
	}
	if len(st.ops) == 0 {
		d.mu.Unlock()
		return res, 0, nil
	}
	if d.wal != nil {
		if _, err := d.wal.Append(journalOps(st.ops)); err != nil {
			d.mu.Unlock()
			return nil, 0, fmt.Errorf("dynamic: journaling %d op(s): %w", len(st.ops), err)
		}
	}
	d.commitLocked(st)
	trigger := d.thresh > 0 && len(d.pending) >= d.thresh
	d.mu.Unlock()
	if trigger {
		d.TriggerRebuild()
	}
	return res, len(st.ops), nil
}

// stage overlays staged edge presence on a CSR graph. Its decide is the
// one rule for every op: Apply stages a batch on the published graph,
// and Restore re-stages journaled ops on the graph they were applied to.
type stage struct {
	g       *graph.Graph
	present map[uint64]bool // staged presence by edgeKey; overrides g
	ops     []Op            // the staged ops, each of which changed the edge set
}

func newStage(g *graph.Graph) *stage {
	return &stage{g: g, present: make(map[uint64]bool)}
}

// decide range-checks op and reports whether it changes the edge set
// staged so far; adding a present edge or removing a missing one does
// not. An op that does is staged.
func (s *stage) decide(op Op) (bool, error) {
	if n := s.g.NumNodes(); op.From < 0 || int(op.From) >= n || op.To < 0 || int(op.To) >= n {
		return false, fmt.Errorf("dynamic: edge (%d,%d) out of range [0,%d)", op.From, op.To, n)
	}
	k := edgeKey(op.From, op.To)
	present, ok := s.present[k]
	if !ok {
		present = s.g.HasEdge(op.From, op.To)
	}
	if present == op.Add {
		return false, nil
	}
	s.present[k] = op.Add
	s.ops = append(s.ops, op)
	return true, nil
}

// next builds the CSR of the staged edge set: g's edges minus the staged
// removes, plus the staged adds. With nothing staged that is g itself,
// so a restore with no pending ops publishes the base graph it loaded.
// Only the rows of the staged ops' sources consult the overlay; every
// other row is copied as it is.
func (s *stage) next() *graph.Graph {
	if len(s.ops) == 0 {
		return s.g
	}
	n := s.g.NumNodes()
	staged := make([]bool, n)
	for _, op := range s.ops {
		staged[op.From] = true
	}
	edges := make([]graph.Edge, 0, s.g.NumEdges()+len(s.present))
	for v := 0; v < n; v++ {
		from := graph.NodeID(v)
		for _, to := range s.g.OutNeighbors(from) {
			if staged[v] {
				if present, ok := s.present[edgeKey(from, to)]; ok && !present {
					continue
				}
			}
			edges = append(edges, graph.Edge{From: from, To: to})
		}
	}
	for k, present := range s.present {
		if present {
			edges = append(edges, graph.Edge{From: graph.NodeID(k >> 32), To: graph.NodeID(uint32(k))})
		}
	}
	return graph.FromEdges(n, edges)
}

// commitLocked appends a staged (and, when durable, journaled) batch to
// the pending ops and publishes the graph it yields on the current
// generation. Caller holds mu.
func (d *Dynamic) commitLocked(st *stage) {
	d.pending = append(d.pending, st.ops...)
	d.totalOps.Add(uint64(len(st.ops)))
	d.publishLocked(d.cur.Load().gen, st.next())
}

// publishLocked publishes g on gen with the affected frontier of the
// pending ops. Caller holds mu.
func (d *Dynamic) publishLocked(gen *generation, g *graph.Graph) {
	aff, list := affectedFrontier(g, d.pending, d.depth)
	d.cur.Store(&view{gen: gen, g: g, affected: aff, affectedList: list, staleOps: len(d.pending)})
}

// affectedFrontier marks every node within forward distance depth of a
// pending op's target (a node whose in-neighborhood changed): exactly the
// nodes whose truncated reverse-walk distribution may differ from the
// index's base graph. A node y is visited at step j < depth of some node
// u's reverse walk iff the graph has a forward path y -> … -> u of length
// j, so BFS along out-edges from the targets covers every such u.
func affectedFrontier(g *graph.Graph, pending []Op, depth int) ([]bool, []int32) {
	if len(pending) == 0 {
		return nil, nil
	}
	aff := make([]bool, g.NumNodes())
	var frontier []int32
	for _, op := range pending {
		if !aff[op.To] {
			aff[op.To] = true
			frontier = append(frontier, op.To)
		}
	}
	list := make([]int32, 0, len(frontier))
	for step := 0; step < depth && len(frontier) > 0; step++ {
		var next []int32
		for _, v := range frontier {
			for _, w := range g.OutNeighbors(v) {
				if !aff[w] {
					aff[w] = true
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	for v, a := range aff {
		if a {
			list = append(list, int32(v))
		}
	}
	return aff, list
}

// Rebuild synchronously rebuilds the index over the current graph and
// swaps it in as a new epoch, returning the epoch this call produced —
// not whatever epoch is serving afterwards, so concurrent rebuilds each
// learn their own swap. The swap keeps the published CSR and drops the
// pending ops the new index covers. Updates applied while the rebuild
// runs stay pending (they form the new epoch's affected frontier); with
// no concurrent updates the swapped index is byte-identical to a fresh
// core.Build of the mutated graph with the same options. On a durable
// index the swap also writes a snapshot; if that fails the new epoch is
// already serving and the epoch is returned alongside the error.
func (d *Dynamic) Rebuild() (uint64, error) {
	d.rebuildMu.Lock()
	epoch, err := d.rebuildLocked()
	d.rebuildMu.Unlock()
	if err == nil {
		d.retriggerIfStale()
	}
	return epoch, err
}

// TriggerRebuild starts a background rebuild unless one is already
// running or the index is closed; it reports whether one was started.
func (d *Dynamic) TriggerRebuild() bool {
	if d.closed.Load() {
		return false
	}
	if !d.rebuilding.CompareAndSwap(false, true) {
		return false
	}
	go func() {
		d.rebuildMu.Lock()
		// A failed build leaves the previous epoch serving; the next
		// update over the threshold retries.
		_, err := d.rebuildLocked()
		d.rebuildMu.Unlock()
		d.rebuilding.Store(false)
		if err == nil {
			d.retriggerIfStale()
		}
	}()
	return true
}

// retriggerIfStale re-arms the threshold trigger after a swap: ops that
// arrived during the rebuild stay pending in the new epoch, and with no
// further Apply calls nothing else would ever schedule the rebuild they
// already warrant.
func (d *Dynamic) retriggerIfStale() {
	d.mu.Lock()
	stale := d.thresh > 0 && len(d.pending) >= d.thresh
	d.mu.Unlock()
	if stale {
		d.TriggerRebuild()
	}
}

func (d *Dynamic) rebuildLocked() (uint64, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	d.running.Store(true)
	defer d.running.Store(false)
	// The build's graph covers the first at pending ops. rebuildMu
	// serializes rebuilds and pending only grows until the swap below, so
	// the ops past at are exactly those applied while the build ran.
	d.mu.Lock()
	snap := d.cur.Load().g
	at := len(d.pending)
	d.mu.Unlock()

	opt := d.buildOpt
	ix, err := core.Build(snap, &opt)
	if err != nil {
		return 0, err
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		// Close raced the build: discard the result instead of swapping.
		return 0, ErrClosed
	}
	old := d.cur.Load()
	gen := &generation{num: old.gen.num + 1, ix: ix, pool: ix.NewScratchPool()}
	d.pending = append([]Op(nil), d.pending[at:]...)
	d.publishLocked(gen, old.g)
	d.rebuilds.Add(1)
	d.retire(old.gen)
	if d.wal != nil {
		// The swap is already visible; a snapshot failure only means
		// recovery replays a longer WAL tail onto the previous snapshot.
		if _, err := d.snapshotLocked(); err != nil {
			return gen.num, fmt.Errorf("dynamic: epoch %d serving but snapshot failed: %w", gen.num, err)
		}
	}
	return gen.num, nil
}

// Close stops the rebuild machinery: no further updates or rebuilds are
// accepted, and an in-flight background rebuild is cancelled (its result
// is discarded before the swap; Close waits for the worker to finish).
// Queries remain valid against the last published epoch. On a durable
// index the WAL is closed; the on-disk state is what Restore reopens.
func (d *Dynamic) Close() {
	d.closed.Store(true)
	// Taking rebuildMu is the wait: it is held for the whole of any
	// in-flight rebuild, whose swap the closed flag above suppresses.
	d.rebuildMu.Lock()
	defer d.rebuildMu.Unlock()
	if d.wal != nil {
		// mu serializes against an Apply mid-journal.
		d.mu.Lock()
		d.wal.Close()
		d.mu.Unlock()
	}
}

// acquire pins the current view: the generation's refcount guarantees the
// drain counter only advances once every query reading a retired epoch
// has released it.
func (d *Dynamic) acquire() *view {
	for {
		w := d.cur.Load()
		w.gen.refs.Add(1)
		if d.cur.Load().gen == w.gen {
			return w
		}
		d.release(w.gen) // swapped mid-acquire; prefer the fresh epoch
	}
}

func (d *Dynamic) release(g *generation) {
	if g.refs.Add(-1) == 0 && g.retired.Load() {
		if g.drained.CompareAndSwap(false, true) {
			d.drainedGens.Add(1)
		}
	}
}

func (d *Dynamic) retire(g *generation) {
	g.retired.Store(true)
	if g.refs.Load() == 0 && g.drained.CompareAndSwap(false, true) {
		d.drainedGens.Add(1)
	}
}

// SimRank returns s̃(u, v), clamped into [0, 1]: from the static index
// when both nodes are unaffected, from fresh coupled Monte Carlo on the
// mutated graph otherwise.
func (d *Dynamic) SimRank(u, v graph.NodeID) float64 {
	w := d.acquire()
	defer d.release(w.gen)
	if w.clean(u) && w.clean(v) {
		// The pool reads the resident index, which cannot fail.
		score, _ := w.gen.pool.SimRank(u, v)
		return clamp01(score)
	}
	return d.pairEstimate(w.g, u, v)
}

// SingleSource returns s̃(u, v) for every node v (clamped into [0, 1]),
// writing into out when it has capacity. Unaffected targets of an
// unaffected source come from the static index; everything else is
// estimated on the mutated graph.
func (d *Dynamic) SingleSource(u graph.NodeID, out []float64) []float64 {
	w := d.acquire()
	defer d.release(w.gen)
	return d.singleSource(w, u, out)
}

func (d *Dynamic) singleSource(w *view, u graph.NodeID, out []float64) []float64 {
	if cap(out) < d.n {
		out = make([]float64, d.n)
	}
	out = out[:d.n]
	if w.clean(u) {
		// The pool reads the resident index, which cannot fail, and out
		// already has capacity n, so it is written in place.
		out, _ = w.gen.pool.SingleSource(u, out)
		for i, s := range out {
			out[i] = clamp01(s)
		}
		if w.affected == nil {
			return out
		}
		// Patch the affected targets. Per-pair estimation walks two
		// trajectories per pair; the memoized single-source sweep walks
		// all n at once — cross over when the frontier covers most nodes.
		if 2*len(w.affectedList) < d.n {
			for _, v := range w.affectedList {
				out[v] = d.pairEstimate(w.g, u, graph.NodeID(v))
			}
		} else {
			tmp := d.mcSingleSource(w.g, u, nil)
			for _, v := range w.affectedList {
				out[v] = tmp[v]
			}
		}
		return out
	}
	return d.mcSingleSource(w.g, u, out)
}

// TopK returns the k nodes most similar to u (excluding u itself) in
// descending score order, ties by ascending node ID — the same selection
// the static index uses, over the dynamic score vector.
func (d *Dynamic) TopK(u graph.NodeID, k int) []core.TopEntry {
	return d.top(u, k, u)
}

// SourceTop returns the limit highest-scoring nodes for source u (u
// itself included) in descending score order, ties by ascending node ID.
func (d *Dynamic) SourceTop(u graph.NodeID, limit int) []core.TopEntry {
	return d.top(u, limit, -1)
}

func (d *Dynamic) top(u graph.NodeID, k int, skip graph.NodeID) []core.TopEntry {
	if k <= 0 {
		return nil
	}
	w := d.acquire()
	defer d.release(w.gen)
	vec := w.gen.pool.Vector()
	top := core.SelectTop(d.singleSource(w, u, *vec), k, skip)
	w.gen.pool.PutVector(vec)
	return top
}

// SingleSourceBatch answers one single-source query per source in us,
// fanned across workers goroutines (Options.Workers when workers <= 0)
// by core.ForEach. Against a fixed state every row equals
// SingleSource(us[i], nil); under concurrent updates each row is
// individually consistent with some published view. A cancelled ctx
// (nil means never) stops the fan-out between sources and returns
// ctx.Err(); a ctx cancelled after the last source was claimed does not
// discard the finished batch.
func (d *Dynamic) SingleSourceBatch(ctx context.Context, us []graph.NodeID, workers int) ([][]float64, error) {
	if workers <= 0 {
		workers = d.workers
	}
	rows := make([][]float64, len(us))
	if err := core.ForEach(ctx, len(us), workers, nil, func(i int, _ struct{}) error {
		rows[i] = d.SingleSource(us[i], nil)
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// AffectedNodes returns the current affected frontier as ascending node
// IDs (empty when the static index fully covers the graph).
func (d *Dynamic) AffectedNodes() []graph.NodeID {
	w := d.acquire()
	defer d.release(w.gen)
	out := make([]graph.NodeID, len(w.affectedList))
	copy(out, w.affectedList)
	return out
}

// Graph returns the current (mutated) graph snapshot.
func (d *Dynamic) Graph() *graph.Graph {
	w := d.acquire()
	defer d.release(w.gen)
	return w.g
}

// Epoch returns the serving index's epoch number (1 after New,
// incremented by every swap).
func (d *Dynamic) Epoch() uint64 {
	w := d.acquire()
	defer d.release(w.gen)
	return w.gen.num
}

// NumNodes returns the fixed node count.
func (d *Dynamic) NumNodes() int { return d.n }

// C returns the decay factor.
func (d *Dynamic) C() float64 { return d.c }

// ErrorBound returns the serving index's per-score error bound.
func (d *Dynamic) ErrorBound() float64 {
	w := d.acquire()
	defer d.release(w.gen)
	return w.gen.ix.ErrorBound()
}

// Stats is a point-in-time snapshot of the dynamic layer.
type Stats struct {
	Epoch            uint64 // serving index generation (1 = initial build)
	Nodes            int
	Edges            int    // edges in the current mutated graph
	AffectedNodes    int    // size of the staleness frontier
	StaleOps         int    // applied ops not yet reflected in the serving index
	TotalOps         uint64 // lifetime applied ops
	Rebuilds         uint64 // completed epoch swaps
	RebuildRunning   bool
	RebuildThreshold int
	EpochsDrained    uint64 // retired epochs no in-flight query still reads
	NumWalks         int    // MC walks per affected-node estimate
	Depth            int    // walk truncation / frontier BFS depth
	IndexBytes       int64
	ErrorBound       float64
	Durable          DurableStats
}

// DurableStats describes the WAL/snapshot backing of a durable index;
// the zero value (Enabled false) means memory-only.
type DurableStats struct {
	Enabled          bool
	LSN              uint64 // last journaled batch
	WALSegments      int
	WALBytes         int64
	Snapshots        int    // snapshot files retained on disk
	LastSnapshotLSN  uint64 // WAL position the newest snapshot covers
	Appends          uint64 // batches journaled in-process
	SnapshotsWritten uint64 // snapshots written in-process
}

// Stats reports the current epoch, staleness, and rebuild state.
func (d *Dynamic) Stats() Stats {
	w := d.acquire()
	defer d.release(w.gen)
	var ds DurableStats
	if d.wal != nil {
		ls := d.wal.Stats()
		ds = DurableStats{
			Enabled:          true,
			LSN:              ls.LastLSN,
			WALSegments:      ls.Segments,
			WALBytes:         ls.WALBytes,
			Snapshots:        ls.Snapshots,
			LastSnapshotLSN:  ls.LastSnapshotLSN,
			Appends:          ls.Appends,
			SnapshotsWritten: ls.SnapshotsWritten,
		}
	}
	return Stats{
		Epoch:            w.gen.num,
		Nodes:            d.n,
		Edges:            w.g.NumEdges(),
		AffectedNodes:    len(w.affectedList),
		StaleOps:         w.staleOps,
		TotalOps:         d.totalOps.Load(),
		Rebuilds:         d.rebuilds.Load(),
		RebuildRunning:   d.running.Load(),
		RebuildThreshold: d.thresh,
		EpochsDrained:    d.drainedGens.Load(),
		NumWalks:         d.nw,
		Depth:            d.depth,
		IndexBytes:       w.gen.ix.Bytes(),
		ErrorBound:       w.gen.ix.ErrorBound(),
		Durable:          ds,
	}
}

func clamp01(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
