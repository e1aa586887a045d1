// Package sling is a Go implementation of SLING, the near-optimal SimRank
// index structure of Tian & Xiao (SIGMOD 2016).
//
// SimRank (Jeh & Widom) measures the similarity of two graph nodes by the
// recursive principle that nodes are similar when their in-neighbors are
// similar. SLING preprocesses a directed graph into an O(n/ε) index that
// then answers
//
//   - single-pair queries s(u, v) in O(1/ε) time, and
//   - single-source queries s(u, ·) in O(m·log²(1/ε)) time,
//
// each with a guaranteed additive error of at most ε (with probability
// 1−δ, over the randomness of preprocessing).
//
// # Quick start
//
//	b := sling.NewGraphBuilder(4)
//	b.AddEdge(0, 2)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 3)
//	g := b.Build()
//
//	ix, err := sling.Build(g) // paper defaults: c=0.6, ε=0.025
//	if err != nil { ... }
//	score, err := ix.SimRank(ctx, 0, 1)
//
// Every backend — the in-memory Index, the disk-resident DiskIndex, and
// the updatable DynamicIndex — implements the Querier interface: the same
// five query methods, context-aware and error-uniform, so serving code
// written against Querier runs over any of them. Construction is tuned
// with functional options (WithEps, WithWorkers, ...).
//
// The index is safe for concurrent queries. See the examples directory
// for larger scenarios, and the README's "Measuring performance" and
// "Correctness & conformance" sections for how this implementation
// reproduces the paper's evaluation.
package sling

import (
	"context"
	"errors"
	"io"
	"runtime"

	"sling/internal/core"
	"sling/internal/durable"
	"sling/internal/dynamic"
	"sling/internal/graph"
	"sling/internal/power"
)

// Graph is a directed graph in dual-CSR form. Construct one with
// NewGraphBuilder, FromEdges, or the edge-list loaders.
type Graph = graph.Graph

// NodeID identifies a node as a dense index in [0, NumNodes).
type NodeID = graph.NodeID

// Edge is a directed edge From -> To.
type Edge = graph.Edge

// GraphBuilder accumulates edges and produces an immutable Graph.
type GraphBuilder = graph.Builder

// Options is the legacy construction configuration. The zero value
// reproduces the paper's experimental configuration (c = 0.6, ε = 0.025,
// δ_d = 1/n²).
//
// Deprecated: pass functional options (WithEps, WithWorkers, ...) to
// Build instead.
type Options = core.Options

// BuildStats reports preprocessing work (walk pairs drawn, local-update
// pushes, entries kept and dropped).
type BuildStats = core.BuildStats

// IndexStats summarizes a built index (entry counts, memory footprint).
type IndexStats = core.IndexStats

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n nodes from an edge list, removing
// duplicate edges.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// LoadEdgeList parses a whitespace-separated "src dst" edge list (SNAP
// format): blank lines and lines starting with '#' or '%' are skipped,
// fields past the second are ignored, and a label is a non-negative
// decimal integer (an optional sign and leading zeros are accepted).
// Node labels are remapped to dense IDs in order of first appearance;
// the returned slice maps dense IDs back to the original labels. Set
// undirected to insert both directions per line. Lines of ASCII
// whitespace and labels of up to 18 digits are parsed on their bytes
// with no allocation per line; any other line takes a general path
// that accepts and rejects the same lines.
func LoadEdgeList(r io.Reader, undirected bool) (*Graph, []int64, error) {
	return graph.ReadEdgeList(r, &graph.LoadOptions{Undirected: undirected})
}

// LoadEdgeListFile is LoadEdgeList over a file path.
func LoadEdgeListFile(path string, undirected bool) (*Graph, []int64, error) {
	return graph.LoadEdgeListFile(path, &graph.LoadOptions{Undirected: undirected})
}

// Index answers SimRank queries over a fixed graph with the ε additive
// error guarantee of the paper's Theorem 1. It is immutable and safe for
// concurrent use; per-goroutine query scratch is pooled internally. Index
// implements Querier.
type Index struct {
	engine
	x *core.Index
}

func wrap(x *core.Index) *Index {
	return &Index{engine: engine{pool: x.NewScratchPool(), n: x.Graph().NumNodes()}, x: x}
}

// Build constructs a SLING index over g; no options means the paper's
// defaults. Building costs O(m/ε + n·log(n/δ)/ε²) time and the index
// takes O(n/ε) space.
func Build(g *Graph, opts ...BuildOption) (*Index, error) {
	x, err := core.Build(g, resolveBuild(opts))
	if err != nil {
		return nil, err
	}
	return wrap(x), nil
}

// BuildWithStats is Build plus preprocessing statistics.
func BuildWithStats(g *Graph, opts ...BuildOption) (*Index, BuildStats, error) {
	x, st, err := core.BuildWithStats(g, resolveBuild(opts))
	if err != nil {
		return nil, st, err
	}
	return wrap(x), st, nil
}

// BuildOutOfCore constructs the same index while keeping the hitting-
// probability entries on disk (in spillDir) until final assembly, holding
// at most memBudget bytes of them in memory (Section 5.4 of the paper).
func BuildOutOfCore(g *Graph, spillDir string, memBudget int64, opts ...BuildOption) (*Index, error) {
	x, err := core.BuildOutOfCore(g, resolveBuild(opts),
		core.OutOfCoreOptions{Dir: spillDir, MemBudget: memBudget})
	if err != nil {
		return nil, err
	}
	return wrap(x), nil
}

// engine answers the query methods Index and DiskIndex share, through
// one core.ScratchPool: the pool fetches H(v) from the resident arrays,
// a mapping, or positioned reads, and every other step — validation,
// gather, join, propagation, selection, batch fan-out — is the same code
// for both.
type engine struct {
	pool    *core.ScratchPool
	n       int
	workers int // SingleSourceBatch fan-out; 0 takes the build's WithWorkers
}

// SimRank returns s̃(u, v) with at most Meta().Eps additive error: the
// Algorithm 3 merge join of H(u) and H(v), with pooled scratch.
func (e *engine) SimRank(ctx context.Context, u, v NodeID) (float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return 0, err
	}
	if err := checkNode(e.n, u); err != nil {
		return 0, err
	}
	if err := checkNode(e.n, v); err != nil {
		return 0, err
	}
	return e.pool.SimRank(u, v)
}

// SingleSource returns s̃(u, v) for every node v (Algorithm 6 of the
// paper: one fetch of H(u), propagated in memory), writing into out when
// it has capacity NumNodes.
func (e *engine) SingleSource(ctx context.Context, u NodeID, out []float64) ([]float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkNode(e.n, u); err != nil {
		return nil, err
	}
	return e.pool.SingleSource(u, out)
}

// SingleSourceBatch answers one single-source query per source in us,
// fanning the sources across goroutines with per-worker scratch
// (WithWorkers for an Index, DiskOptions.Workers for a DiskIndex). Row i
// equals SingleSource(us[i], nil) exactly, at any worker count.
// Cancellation is observed between sources: a cancelled ctx stops the
// fan-out and returns ctx.Err().
func (e *engine) SingleSourceBatch(ctx context.Context, us []NodeID) ([][]float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkNodes(e.n, us); err != nil {
		return nil, err
	}
	return e.pool.SingleSourceBatch(ctx, us, e.workers)
}

// Scored is a node with a SimRank score, as returned by TopK and
// SourceTop.
type Scored = core.TopEntry

// TopK returns the k nodes most similar to u (excluding u itself) in
// descending score order, breaking ties by node ID. Selection is a
// size-k min-heap over the nodes one single-source evaluation touched —
// O(nnz log k), with no full sort and no O(n) scan — and every buffer
// beyond the returned slice is pooled.
// k <= 0 yields an empty result; k > NumNodes behaves like k = NumNodes.
func (e *engine) TopK(ctx context.Context, u NodeID, k int) ([]Scored, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkNode(e.n, u); err != nil {
		return nil, err
	}
	return e.pool.TopK(u, k)
}

// SourceTop returns the limit highest-scoring nodes for source u (u
// itself included, typically in first place with s(u,u)=1) in descending
// score order, breaking ties by node ID.
func (e *engine) SourceTop(ctx context.Context, u NodeID, limit int) ([]Scored, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkNode(e.n, u); err != nil {
		return nil, err
	}
	return e.pool.SourceTop(u, limit)
}

// Meta describes the index as a Querier backend.
func (ix *Index) Meta() QuerierMeta {
	return QuerierMeta{
		Name:  "memory",
		Nodes: ix.n,
		C:     ix.x.C(),
		Eps:   ix.x.ErrorBound(),
		Bytes: ix.x.Bytes() + ix.x.Graph().Bytes(),
	}
}

// Close implements Querier; the in-memory index holds no external
// resources, so it is a no-op.
func (ix *Index) Close() error { return nil }

// Graph returns the graph the index was built over.
func (ix *Index) Graph() *Graph { return ix.x.Graph() }

// ErrorBound returns the worst-case additive error guaranteed per score
// (Theorem 1 of the paper, for the resolved parameters).
func (ix *Index) ErrorBound() float64 { return ix.x.ErrorBound() }

// C returns the decay factor the index was built with.
func (ix *Index) C() float64 { return ix.x.C() }

// Bytes returns the in-memory footprint of the index (excluding the
// graph).
func (ix *Index) Bytes() int64 { return ix.x.Bytes() }

// Stats summarizes the index.
func (ix *Index) Stats() IndexStats { return ix.x.Stats() }

// WriteTo serializes the index (io.WriterTo).
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.x.WriteTo(w) }

// Save writes the index to path.
func (ix *Index) Save(path string) error { return ix.x.SaveFile(path) }

// Open reads an index previously saved with Save, binding it to g (the
// graph it was built over).
func Open(path string, g *Graph) (*Index, error) {
	x, err := core.LoadFile(path, g)
	if err != nil {
		return nil, err
	}
	return wrap(x), nil
}

// ReadIndex deserializes an index from r, binding it to g.
func ReadIndex(r io.Reader, g *Graph) (*Index, error) {
	x, err := core.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return wrap(x), nil
}

// DiskIndex answers queries against an index file whose HP entries stay
// on disk; only O(n) metadata is memory-resident and a single-pair query
// costs two positioned reads, or two slices of a mapping (Section 5.4 of
// the paper). It answers through the same engine as Index, so its
// scores are bitwise-identical; the only extra outcome is an I/O error
// from a positioned read. It is safe for arbitrary concurrent use:
// positioned reads are goroutine-safe and query scratch is pooled
// internally. DiskIndex implements Querier.
type DiskIndex struct {
	engine
	d *core.DiskIndex
}

// DiskOptions tunes disk-resident serving beyond the defaults.
type DiskOptions struct {
	// Workers bounds SingleSourceBatch fan-out. Default GOMAXPROCS.
	Workers int
	// Mmap memory-maps the index file and serves the entries regions as
	// typed views: a fetch widens a slice of the mapping with no read
	// syscall and zero per-query allocations, and the OS page cache is
	// the only cache. On
	// platforms or byte orders where the reinterpretation is invalid
	// (no mmap, big-endian) opening silently falls back to the
	// positioned-read path; Mapped reports which mode serves.
	Mmap bool
}

// MmapSupported reports whether DiskOptions.Mmap can serve on this
// platform (mmap available and little-endian byte order). When false,
// Mmap requests fall back to positioned reads.
func MmapSupported() bool { return core.MmapSupported() }

// OpenDisk opens path for disk-resident querying with default options
// (positioned reads, GOMAXPROCS batch workers).
func OpenDisk(path string, g *Graph) (*DiskIndex, error) {
	return OpenDiskWithOptions(path, g, nil)
}

// OpenDiskWithOptions is OpenDisk with explicit tuning; a nil or zero
// options value takes the defaults.
func OpenDiskWithOptions(path string, g *Graph, o *DiskOptions) (*DiskIndex, error) {
	var d *core.DiskIndex
	var err error
	if o != nil && o.Mmap {
		d, err = core.OpenDiskIndexMmap(path, g)
		if errors.Is(err, core.ErrMmapUnsupported) {
			// Explicit platform fallback: the file is fine, only the
			// zero-copy reinterpretation is unavailable here.
			d, err = core.OpenDiskIndex(path, g)
		}
	} else {
		d, err = core.OpenDiskIndex(path, g)
	}
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if o != nil && o.Workers > 0 {
		workers = o.Workers
	}
	return &DiskIndex{engine: engine{pool: d.NewScratchPool(), n: g.NumNodes(), workers: workers}, d: d}, nil
}

// Mapped reports whether the index serves from a zero-copy memory
// mapping (DiskOptions.Mmap honored) rather than positioned reads.
func (di *DiskIndex) Mapped() bool { return di.d.Mapped() }

// Meta describes the disk index as a Querier backend ("disk-mmap" when
// the zero-copy mapped mode serves).
func (di *DiskIndex) Meta() QuerierMeta {
	name := "disk"
	if di.d.Mapped() {
		name = "disk-mmap"
	}
	return QuerierMeta{
		Name:  name,
		Nodes: di.n,
		C:     di.d.Meta().C(),
		Eps:   di.d.Meta().ErrorBound(),
		// Resident metadata plus the graph. Mapped entry pages belong to
		// the OS page cache and are not counted.
		Bytes: di.d.Meta().Bytes() + di.d.Meta().Graph().Bytes(),
	}
}

// Graph returns the graph the index was built over.
func (di *DiskIndex) Graph() *Graph { return di.d.Meta().Graph() }

// ErrorBound returns the worst-case additive error guaranteed per score.
func (di *DiskIndex) ErrorBound() float64 { return di.d.Meta().ErrorBound() }

// C returns the decay factor the index was built with.
func (di *DiskIndex) C() float64 { return di.d.Meta().C() }

// NumEntries returns the number of HP entries resident on disk.
func (di *DiskIndex) NumEntries() int64 { return di.d.NumEntries() }

// Bytes returns the memory-resident footprint (metadata only).
func (di *DiskIndex) Bytes() int64 { return di.d.Meta().Bytes() }

// Close releases the underlying file.
func (di *DiskIndex) Close() error { return di.d.Close() }

// EdgeOp is one edge mutation for DynamicIndex.Apply: Add inserts
// From -> To, otherwise the op removes it.
type EdgeOp = dynamic.Op

// EdgeOpResult reports what one EdgeOp did (no-ops and invalid ops fail
// individually, they never fail the batch).
type EdgeOpResult = dynamic.OpResult

// DynamicStats snapshots a DynamicIndex: epoch, staleness frontier,
// rebuild state, and drain counters.
type DynamicStats = dynamic.Stats

// DynamicDurableStats describes the WAL/snapshot backing of a durable
// DynamicIndex (DynamicStats.Durable; Enabled false when memory-only).
type DynamicDurableStats = dynamic.DurableStats

// Durable-state error sentinels, re-exported for callers that dispatch
// on them (restore-or-create flows, operational tooling). Test with
// errors.Is — they arrive wrapped with context.
var (
	// ErrNotDurable: the operation needs DynamicOptions.DurableDir.
	ErrNotDurable = dynamic.ErrNotDurable
	// ErrNoDurableState: RestoreDynamic found no snapshot to restore.
	ErrNoDurableState = dynamic.ErrNoState
	// ErrDurableStateExists: NewDynamic pointed at a non-fresh directory.
	ErrDurableStateExists = dynamic.ErrStateExists
	// ErrDurableCorrupt: recovery refused damage it cannot repair without
	// losing acknowledged updates.
	ErrDurableCorrupt = durable.ErrCorrupt
	// ErrIndexCorrupt: Open, ReadIndex, OpenDisk or OpenDiskWithOptions
	// found a damaged index file (a checksum mismatch, a truncated
	// section, or an entry no build writes).
	ErrIndexCorrupt = core.ErrCorrupt
)

// DynamicOptions tunes the dynamic layer beyond its defaults.
type DynamicOptions struct {
	// RebuildThreshold is the number of applied edge ops that triggers a
	// background rebuild. 0 disables automatic rebuilds.
	RebuildThreshold int
	// NumWalks is the Monte Carlo walk count per affected-node estimate.
	// 0 derives the ε/δ-guaranteed count, which is large; serving
	// deployments usually set an explicit budget.
	NumWalks int
	// Depth overrides the walk truncation / staleness frontier depth.
	// 0 derives the smallest depth whose truncated tail costs ≤ eps/2.
	Depth int
	// Workers bounds SingleSourceBatch fan-out. Default GOMAXPROCS.
	Workers int
	// Seed drives the Monte Carlo coupling. 0 derives one from the build
	// seed.
	Seed uint64
	// DurableDir, when set, backs the index with a write-ahead log and
	// snapshots in that directory: applied batches are journaled before
	// they are acknowledged, rebuild epoch swaps write snapshots, and
	// RestoreDynamic reopens the state after a restart. NewDynamic
	// requires the directory to hold no prior state.
	DurableDir string
	// DurableNoSync skips the per-batch fsync: a crash may silently lose
	// the newest acknowledged batches (recovery truncates them as a torn
	// tail). Snapshots are always synced.
	DurableNoSync bool
	// DurableReadOnly opens the durable state without modifying it — no
	// torn-tail repair, no appends (updates fail). Only meaningful with
	// RestoreDynamic, e.g. to inspect a live instance's directory.
	DurableReadOnly bool
}

// durableOptions maps the facade's durable fields onto the storage
// layer's options, nil when durability is off.
func (do *DynamicOptions) durableOptions() *durable.Options {
	if do == nil || do.DurableDir == "" {
		return nil
	}
	return &durable.Options{Dir: do.DurableDir, NoSync: do.DurableNoSync, ReadOnly: do.DurableReadOnly}
}

// DynamicIndex is an updatable SimRank index (a built static index plus
// an edge-update layer): AddEdge/RemoveEdge mutate the graph while
// queries keep serving, queries touching the affected-node frontier fall
// back to fresh Monte Carlo estimation on the mutated graph, and a
// rebuild (manual or threshold-triggered, in the background) swaps in a
// fresh index as a new epoch with zero query downtime. All scores are
// clamped into [0, 1]. Queries are safe for arbitrary concurrent use and
// never block on updates. DynamicIndex implements Querier.
type DynamicIndex struct {
	d *dynamic.Dynamic
	n int
}

// NewDynamic builds an index over g (construction tuned with the same
// functional options as Build) and wraps it for edge updates. The node
// set is fixed; edges may be added and removed freely afterwards. A nil
// do takes the dynamic-layer defaults.
func NewDynamic(g *Graph, do *DynamicOptions, opts ...BuildOption) (*DynamicIndex, error) {
	d, err := dynamic.New(g, dynamicOptions(do, opts))
	if err != nil {
		return nil, err
	}
	return &DynamicIndex{d: d, n: g.NumNodes()}, nil
}

// RestoreDynamic reopens the durable state in do.DurableDir (required):
// the newest valid snapshot plus the WAL tail reproduce the lost
// instance's exact state, answering bitwise-identically — provided the
// build options and seeds match the ones the state was created with
// (they are not persisted). A directory that never held state returns
// ErrNoDurableState; damage that could hide an acknowledged update
// returns an error wrapping ErrDurableCorrupt instead of restoring
// silently-wrong state.
func RestoreDynamic(do *DynamicOptions, opts ...BuildOption) (*DynamicIndex, error) {
	d, err := dynamic.Restore(dynamicOptions(do, opts))
	if err != nil {
		return nil, err
	}
	dx := &DynamicIndex{d: d}
	dx.n = dx.d.NumNodes()
	return dx, nil
}

func dynamicOptions(do *DynamicOptions, opts []BuildOption) dynamic.Options {
	opt := dynamic.Options{Build: *resolveBuild(opts), Durable: do.durableOptions()}
	if do != nil {
		opt.RebuildThreshold = do.RebuildThreshold
		opt.NumWalks = do.NumWalks
		opt.Depth = do.Depth
		opt.Workers = do.Workers
		opt.Seed = do.Seed
	}
	return opt
}

// AddEdge inserts u -> v, reporting whether the graph changed (false when
// the edge already existed). Node IDs outside the fixed node set error.
func (dx *DynamicIndex) AddEdge(u, v NodeID) (bool, error) { return dx.d.AddEdge(u, v) }

// RemoveEdge deletes u -> v, reporting whether the graph changed (false
// when the edge did not exist).
func (dx *DynamicIndex) RemoveEdge(u, v NodeID) (bool, error) { return dx.d.RemoveEdge(u, v) }

// Apply executes a batch of edge ops under one graph snapshot and one
// frontier recomputation. Invalid ops fail individually in the results;
// the returned error is non-nil only after Close.
func (dx *DynamicIndex) Apply(ops []EdgeOp) ([]EdgeOpResult, int, error) { return dx.d.Apply(ops) }

// Rebuild synchronously rebuilds the index over the current graph and
// swaps it in as a new epoch, returning the epoch this call produced (not
// whatever epoch serves afterwards — concurrent rebuilds each learn their
// own). With no concurrent updates the result is byte-identical to a
// fresh Build of the mutated graph.
func (dx *DynamicIndex) Rebuild() (uint64, error) { return dx.d.Rebuild() }

// Snapshot captures the current state as a durable snapshot, returning
// the WAL position it covers. It errors with ErrNotDurable unless the
// index was created with DynamicOptions.DurableDir.
func (dx *DynamicIndex) Snapshot() (uint64, error) { return dx.d.Snapshot() }

// TriggerRebuild starts a background rebuild unless one is running; it
// reports whether one was started.
func (dx *DynamicIndex) TriggerRebuild() bool { return dx.d.TriggerRebuild() }

// Close stops updates and rebuilds (an in-flight background rebuild is
// discarded). Queries remain valid against the last epoch.
func (dx *DynamicIndex) Close() error {
	dx.d.Close()
	return nil
}

// SimRank returns s̃(u, v) in [0, 1]: static-index fast path for
// unaffected nodes, fresh estimation on the mutated graph otherwise.
func (dx *DynamicIndex) SimRank(ctx context.Context, u, v NodeID) (float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return 0, err
	}
	if err := checkNode(dx.n, u); err != nil {
		return 0, err
	}
	if err := checkNode(dx.n, v); err != nil {
		return 0, err
	}
	return dx.d.SimRank(u, v), nil
}

// SingleSource returns s̃(u, v) for every node v, writing into out when
// it has capacity.
func (dx *DynamicIndex) SingleSource(ctx context.Context, u NodeID, out []float64) ([]float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkNode(dx.n, u); err != nil {
		return nil, err
	}
	return dx.d.SingleSource(u, out), nil
}

// SingleSourceBatch answers one single-source query per source, fanned
// across DynamicOptions.Workers goroutines. Cancellation is observed
// between sources.
func (dx *DynamicIndex) SingleSourceBatch(ctx context.Context, us []NodeID) ([][]float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkNodes(dx.n, us); err != nil {
		return nil, err
	}
	return dx.d.SingleSourceBatch(ctx, us, 0)
}

// TopK returns the k nodes most similar to u (excluding u) in descending
// score order, ties by ascending node ID.
func (dx *DynamicIndex) TopK(ctx context.Context, u NodeID, k int) ([]Scored, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkNode(dx.n, u); err != nil {
		return nil, err
	}
	return dx.d.TopK(u, k), nil
}

// SourceTop returns the limit highest-scoring nodes for source u (u
// itself included) in descending score order.
func (dx *DynamicIndex) SourceTop(ctx context.Context, u NodeID, limit int) ([]Scored, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := checkNode(dx.n, u); err != nil {
		return nil, err
	}
	return dx.d.SourceTop(u, limit), nil
}

// Meta describes the dynamic index as a Querier backend. Epoch advances
// with every rebuild swap.
func (dx *DynamicIndex) Meta() QuerierMeta {
	st := dx.d.Stats()
	return QuerierMeta{
		Name:    "dynamic",
		Nodes:   dx.n,
		C:       dx.d.C(),
		Eps:     dx.d.ErrorBound(),
		Clamped: true,
		Epoch:   dx.d.Epoch(),
		Bytes:   st.IndexBytes + dx.d.Graph().Bytes(),
	}
}

// AffectedNodes returns the staleness frontier as ascending node IDs.
func (dx *DynamicIndex) AffectedNodes() []NodeID { return dx.d.AffectedNodes() }

// Graph returns the current (mutated) graph snapshot.
func (dx *DynamicIndex) Graph() *Graph { return dx.d.Graph() }

// Epoch returns the serving index's epoch (1 after NewDynamic,
// incremented by every rebuild swap).
func (dx *DynamicIndex) Epoch() uint64 { return dx.d.Epoch() }

// NumNodes returns the fixed node count.
func (dx *DynamicIndex) NumNodes() int { return dx.d.NumNodes() }

// C returns the decay factor.
func (dx *DynamicIndex) C() float64 { return dx.d.C() }

// ErrorBound returns the serving index's per-score error bound.
func (dx *DynamicIndex) ErrorBound() float64 { return dx.d.ErrorBound() }

// Stats reports epoch, staleness, and rebuild counters.
func (dx *DynamicIndex) Stats() DynamicStats { return dx.d.Stats() }

// ExactAllPairs computes ground-truth SimRank scores with the power
// method at additive accuracy eps. It needs O(n²) memory and is meant for
// validation on small graphs, mirroring the paper's use of 50 power
// iterations as ground truth.
func ExactAllPairs(g *Graph, c, eps float64) (*power.Scores, error) {
	return power.AllPairs(g, c, power.IterationsFor(eps, c))
}

// PairScore is an unordered node pair with its SimRank score, as returned
// by SimilarPairs.
type PairScore struct {
	U, V  NodeID
	Score float64
}

// SimilarPairs returns every unordered pair {u, v} whose indexed score is
// at least tau (a SimRank similarity join), sorted by descending score.
// Results are exact with respect to the index, hence within ErrorBound of
// true SimRank. Intended for moderate thresholds (tau ≥ ~0.1); it panics
// unless tau is in (0, 1].
func (ix *Index) SimilarPairs(tau float64) []PairScore {
	pairs := ix.x.SimilarPairs(tau)
	out := make([]PairScore, len(pairs))
	for i, p := range pairs {
		out[i] = PairScore{U: p.U, V: p.V, Score: p.Score}
	}
	return out
}
