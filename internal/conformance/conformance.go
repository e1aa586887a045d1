package conformance

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"sling"
	"sling/internal/core"
	"sling/internal/eval"
	"sling/internal/power"
	"sling/internal/rng"
	"sling/internal/server"
	"sling/internal/workload"
)

// Config is one (decay factor, error bound) point of the matrix.
type Config struct {
	C   float64 `json:"c"`
	Eps float64 `json:"eps"`
}

func (c Config) String() string { return fmt.Sprintf("c%g-eps%g", c.C, c.Eps) }

// DefaultConfigs is the (c, ε) grid the full matrix runs: the paper's
// decay factor at two accuracy targets plus a high-decay point.
func DefaultConfigs() []Config {
	return []Config{
		{C: 0.6, Eps: 0.05},
		{C: 0.6, Eps: 0.10},
		{C: 0.8, Eps: 0.15},
	}
}

// symTol bounds |s̃(u,v) − s̃(v,u)|: the index join is mathematically
// symmetric, so only float summation order may differ.
const symTol = 1e-9

// rangeTol absorbs float rounding in the score-range invariant.
const rangeTol = 1e-12

// Options configures a conformance run.
type Options struct {
	// Families to generate; default workload.Families().
	Families []workload.Family
	// Configs to sweep; default DefaultConfigs().
	Configs []Config
	// N is the target node count per family (ground truth is O(n²) per
	// cell, so keep it small). Default 24.
	N int
	// Seed drives graph generation, index builds, and the update mix.
	Seed uint64
	// Dir is the scratch directory for SLIX files and out-of-core
	// spills. Required.
	Dir string
	// HTTP includes the three HTTP server modes.
	HTTP bool
	// Dynamic includes the dynamic backend, stale and rebuilt.
	Dynamic bool
	// K is the top-k cutoff exercised per source. Default 5.
	K int
	// Only, when non-empty, is a regexp over backend names: cells whose
	// backend does not match are skipped (and counted in
	// Report.Filtered). The reference backend is always evaluated — other
	// cells compare against it bitwise — but its cell is only reported
	// when it matches.
	Only string
	// Logf, when set, receives per-cell progress lines.
	Logf func(format string, args ...interface{})
}

func (o *Options) withDefaults() (Options, error) {
	r := *o
	if len(r.Families) == 0 {
		r.Families = workload.Families()
	}
	if len(r.Configs) == 0 {
		r.Configs = DefaultConfigs()
	}
	if r.N == 0 {
		r.N = 24
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.K == 0 {
		r.K = 5
	}
	if r.Dir == "" {
		return r, fmt.Errorf("conformance: Options.Dir is required")
	}
	if r.Logf == nil {
		r.Logf = func(string, ...interface{}) {}
	}
	return r, nil
}

// Cell is one (family, config, backend) result.
type Cell struct {
	Family  string  `json:"family"`
	Backend string  `json:"backend"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	C       float64 `json:"c"`
	Eps     float64 `json:"eps"`

	// BuildMS is the backend's construction cost (index build, SLIX
	// round trip, or dynamic build + update application).
	BuildMS float64 `json:"build_ms"`
	// Queries counts individual answers checked; AvgQueryUS is the mean
	// wall-clock per answer.
	Queries    int     `json:"queries"`
	AvgQueryUS float64 `json:"avg_query_us"`

	// MaxErr is the largest |s̃ − s_exact| observed across pair,
	// single-source, top-k and batch answers; Headroom = Eps − MaxErr.
	MaxErr   float64 `json:"max_err"`
	Headroom float64 `json:"eps_headroom"`

	// BitwiseRef names the backend this cell was compared against
	// bitwise ("" for the reference itself); BitwiseOK reports equality.
	BitwiseRef string `json:"bitwise_ref,omitempty"`
	BitwiseOK  bool   `json:"bitwise_ok"`

	// Violations lists failed assertions (ε exceedances, invariant or
	// equivalence breaks). Empty means the cell passed.
	Violations []string `json:"violations"`
	Pass       bool     `json:"pass"`
}

// Report is the JSON document a conformance run produces.
type Report struct {
	Seed        uint64   `json:"seed"`
	N           int      `json:"n"`
	Families    []string `json:"families"`
	Configs     []Config `json:"configs"`
	Backends    []string `json:"backends"`
	Cells       []Cell   `json:"cells"`
	WorstErr    float64  `json:"worst_err"`
	MinHeadroom float64  `json:"min_eps_headroom"`
	Failures    int      `json:"failures"`
	// Filtered counts cells skipped by Options.Only.
	Filtered  int     `json:"filtered,omitempty"`
	AllPass   bool    `json:"all_pass"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// timed runs f and reports its wall-clock cost in milliseconds.
func timed[T any](f func() (T, error)) (T, float64, error) {
	start := time.Now()
	v, err := f()
	return v, float64(time.Since(start).Nanoseconds()) / 1e6, err
}

// Run executes the conformance matrix and aggregates the report. Cell
// failures do not abort the run — they are collected so one report shows
// every broken cell; only harness errors (build failures, I/O) abort.
func Run(opts Options) (*Report, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	var only *regexp.Regexp
	if o.Only != "" {
		if only, err = regexp.Compile(o.Only); err != nil {
			return nil, fmt.Errorf("conformance: bad Only pattern %q: %w", o.Only, err)
		}
	}
	start := time.Now()
	rep := &Report{Seed: o.Seed, N: o.N, Configs: o.Configs, MinHeadroom: math.Inf(1)}
	for _, f := range o.Families {
		rep.Families = append(rep.Families, f.Name)
	}
	backendSet := map[string]bool{}
	for _, fam := range o.Families {
		// The generated graph depends only on the family, and exact
		// ground truth only on (graph, c): share both across configs —
		// the power method is the most expensive step of a cell.
		g := fam.Gen(o.N, o.Seed)
		truthByC := map[float64]*power.Scores{}
		for _, cfg := range o.Configs {
			truth, ok := truthByC[cfg.C]
			if !ok {
				var err error
				if truth, err = eval.GroundTruth(g, cfg.C); err != nil {
					return nil, fmt.Errorf("conformance: %s/%s: ground truth: %w", fam.Name, cfg, err)
				}
				truthByC[cfg.C] = truth
			}
			cells, filtered, err := runFamilyConfig(o, only, fam, cfg, g, truth)
			if err != nil {
				return nil, fmt.Errorf("conformance: %s/%s: %w", fam.Name, cfg, err)
			}
			rep.Filtered += filtered
			for _, c := range cells {
				backendSet[c.Backend] = true
				rep.Cells = append(rep.Cells, c)
				if c.MaxErr > rep.WorstErr {
					rep.WorstErr = c.MaxErr
				}
				if c.Headroom < rep.MinHeadroom {
					rep.MinHeadroom = c.Headroom
				}
				if !c.Pass {
					rep.Failures++
				}
				status := "ok"
				if !c.Pass {
					status = fmt.Sprintf("FAIL %v", c.Violations)
				}
				o.Logf("%-13s %-15s %s  maxErr %.5f (eps %.3g)  %s",
					fam.Name, c.Backend, cfg, c.MaxErr, c.Eps, status)
			}
		}
	}
	for name := range backendSet {
		rep.Backends = append(rep.Backends, name)
	}
	sort.Strings(rep.Backends)
	rep.AllPass = rep.Failures == 0
	if math.IsInf(rep.MinHeadroom, 1) {
		rep.MinHeadroom = 0
	}
	rep.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	return rep, nil
}

// runFamilyConfig evaluates every backend on one generated graph, with
// exact ground truth for (g, cfg.C) supplied by the caller. only, when
// non-nil, filters which backends are evaluated and reported; the
// second return counts the cells it skipped.
func runFamilyConfig(o Options, only *regexp.Regexp, fam workload.Family, cfg Config,
	g *sling.Graph, truth *power.Scores) ([]Cell, int, error) {

	opts := []sling.BuildOption{sling.WithC(cfg.C), sling.WithEps(cfg.Eps), sling.WithSeed(o.Seed)}
	match := func(name string) bool { return only == nil || only.MatchString(name) }

	set, err := NewStaticSet(g, o.Dir, o.HTTP, opts...)
	if err != nil {
		return nil, 0, err
	}
	defer set.Close()

	var cells []Cell
	filtered := 0
	// The reference is always evaluated — every other cell compares
	// against its answers bitwise — but reported only when it matches.
	ref := evaluate(o, fam, cfg, g, truth, set.Ref, nil)
	ref.cell.BuildMS = set.BuildMS["memory"]
	if match(set.Ref.Name()) {
		cells = append(cells, ref.cell)
	} else {
		filtered++
	}
	for _, be := range set.Others {
		if !match(be.Name()) {
			filtered++
			continue
		}
		res := evaluate(o, fam, cfg, g, truth, be, ref)
		res.cell.BuildMS = set.BuildMS[be.Name()]
		cells = append(cells, res.cell)
	}

	if o.Dynamic {
		dyn, err := dynamicCells(o, fam, cfg, g, opts...)
		if err != nil {
			return nil, 0, err
		}
		for _, c := range dyn {
			if !match(c.Backend) {
				filtered++
				continue
			}
			cells = append(cells, c)
		}
	}
	return cells, filtered, nil
}

// evalResult carries one backend's full answer set so later backends can
// be compared against it bitwise.
type evalResult struct {
	cell Cell
	pair *power.Scores // SimRank matrix (ordered pairs)
	rows *power.Scores // single-source matrix
	topk [][]sling.Scored
	stop [][]sling.Scored
}

// evaluate drives one backend through every query type over the full
// node set, asserting accuracy against truth, internal invariants, and
// (when ref is non-nil) bitwise equality with the reference backend.
func evaluate(o Options, fam workload.Family, cfg Config, g *sling.Graph,
	truth *power.Scores, be Backend, ref *evalResult) *evalResult {

	n := g.NumNodes()
	res := &evalResult{
		cell: Cell{
			Family: fam.Name, Backend: be.Name(), N: n, M: g.NumEdges(),
			C: cfg.C, Eps: cfg.Eps,
		},
		pair: &power.Scores{N: n, Data: make([]float64, n*n)},
		rows: &power.Scores{N: n, Data: make([]float64, n*n)},
	}
	cell := &res.cell
	fail := func(format string, args ...interface{}) {
		if len(cell.Violations) < 8 { // cap noise; one is already fatal
			cell.Violations = append(cell.Violations, fmt.Sprintf(format, args...))
		}
	}

	ctx := context.Background()
	qstart := time.Now()

	// Single-pair over every ordered pair.
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			s, err := be.SimRank(ctx, sling.NodeID(u), sling.NodeID(v))
			if err != nil {
				fail("simrank(%d,%d): %v", u, v, err)
				cell.Pass = false
				return res
			}
			res.pair.Data[u*n+v] = s
			cell.Queries++
		}
	}
	// Single-source from every node.
	for u := 0; u < n; u++ {
		row, err := be.SingleSource(ctx, sling.NodeID(u), nil)
		if err != nil || len(row) != n {
			fail("source(%d): len %d, err %v", u, len(row), err)
			cell.Pass = false
			return res
		}
		copy(res.rows.Data[u*n:(u+1)*n], row)
		cell.Queries++
	}
	// Batch: one request covering every source.
	us := make([]sling.NodeID, n)
	for i := range us {
		us[i] = sling.NodeID(i)
	}
	batch, err := be.SingleSourceBatch(ctx, us)
	if err != nil || len(batch) != n {
		fail("batch: %d rows, err %v", len(batch), err)
		cell.Pass = false
		return res
	}
	cell.Queries += n
	// Top-k and source-top from every node.
	for u := 0; u < n; u++ {
		tk, err := be.TopK(ctx, sling.NodeID(u), o.K)
		if err != nil {
			fail("topk(%d): %v", u, err)
			cell.Pass = false
			return res
		}
		st, err := be.SourceTop(ctx, sling.NodeID(u), o.K+1)
		if err != nil {
			fail("sourcetop(%d): %v", u, err)
			cell.Pass = false
			return res
		}
		res.topk = append(res.topk, tk)
		res.stop = append(res.stop, st)
		cell.Queries += 2
	}
	cell.AvgQueryUS = float64(time.Since(qstart).Nanoseconds()) / 1e3 / float64(cell.Queries)

	// (a) Additive accuracy against exact SimRank, over both query paths.
	pairErr, _ := eval.MaxError(res.pair, truth)
	rowErr, _ := eval.MaxError(res.rows, truth)
	cell.MaxErr = math.Max(pairErr, rowErr)
	cell.Headroom = cfg.Eps - cell.MaxErr
	if cell.MaxErr > cfg.Eps {
		fail("max additive error %.6f exceeds eps %.4f", cell.MaxErr, cfg.Eps)
	}

	// (c) Invariants.
	if gap := eval.SymmetryGap(res.pair); gap > symTol {
		fail("pair symmetry gap %.3g exceeds %.1g", gap, symTol)
	}
	hi := 1 + cfg.Eps + rangeTol
	if be.Meta().Clamped {
		hi = 1
	}
	if lo, top := eval.RangeViolation(res.pair, 0, hi), eval.RangeViolation(res.rows, 0, hi); lo > 0 || top > 0 {
		fail("scores leave [0, %.4g] by up to %.3g", hi, math.Max(lo, top))
	}
	for u := 0; u < n; u++ {
		if d := math.Abs(res.pair.At(u, u) - 1); d > cfg.Eps {
			fail("s(%d,%d) = %.4f, not within eps of 1", u, u, res.pair.At(u, u))
			break
		}
	}
	for u := 0; u < n; u++ {
		if !sameRows(batch[u], res.rows.Row(u)) {
			fail("batch row %d differs bitwise from single-source", u)
			break
		}
	}
	for u := 0; u < n; u++ {
		row := res.rows.Row(u)
		if !sameScored(res.topk[u], core.SelectTop(row, o.K, sling.NodeID(u))) {
			fail("topk(%d) inconsistent with own single-source row", u)
			break
		}
		if !sameScored(res.stop[u], core.SelectTop(row, o.K+1, -1)) {
			fail("sourcetop(%d) inconsistent with own single-source row", u)
			break
		}
	}

	// (b) Bitwise cross-backend equivalence. A reference whose own
	// evaluation early-returned has incomplete answer sets; record that
	// as a failure instead of indexing into the missing data.
	if ref != nil && (len(ref.topk) != n || len(ref.stop) != n) {
		cell.BitwiseRef = ref.cell.Backend
		fail("reference %s evaluation incomplete; bitwise check impossible", ref.cell.Backend)
		ref = nil
	}
	if ref != nil {
		cell.BitwiseRef = ref.cell.Backend
		cell.BitwiseOK = true
		if !sameRows(res.pair.Data, ref.pair.Data) {
			cell.BitwiseOK = false
			fail("pair answers differ bitwise from %s", ref.cell.Backend)
		}
		if !sameRows(res.rows.Data, ref.rows.Data) {
			cell.BitwiseOK = false
			fail("single-source answers differ bitwise from %s", ref.cell.Backend)
		}
		for u := 0; u < n; u++ {
			if !sameScored(res.topk[u], ref.topk[u]) || !sameScored(res.stop[u], ref.stop[u]) {
				cell.BitwiseOK = false
				fail("top-k answers differ from %s at source %d", ref.cell.Backend, u)
				break
			}
		}
	}

	cell.Pass = len(cell.Violations) == 0
	if cell.Violations == nil {
		cell.Violations = []string{} // always a JSON array
	}
	return res
}

// sameRows reports bitwise equality of two score slices (NaN-safe).
func sameRows(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameScored reports bitwise equality of two top-k selections.
func sameScored(a, b []sling.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// dynamicCells covers the updatable backend: a deterministic update mix
// is applied, the stale phase is checked against exact SimRank on the
// mutated graph (ε holds through the Monte Carlo fallback), then a
// rebuild swaps the epoch and the rebuilt index is checked bitwise
// against a clamped fresh build — plus the HTTP dynamic mode when
// enabled. The instance is durably backed, and both phases gain a
// restored twin (snapshot + WAL-tail replay from the same directory)
// that must answer bitwise-identically to the live index.
func dynamicCells(o Options, fam workload.Family, cfg Config, g *sling.Graph,
	opts ...sling.BuildOption) ([]Cell, error) {

	durDir := filepath.Join(o.Dir, fmt.Sprintf("durable-%s-%s", fam.Name, cfg))
	dx, buildMS, err := timed(func() (*sling.DynamicIndex, error) {
		return sling.NewDynamic(g, &sling.DynamicOptions{DurableDir: durDir}, opts...)
	})
	if err != nil {
		return nil, fmt.Errorf("dynamic build: %w", err)
	}
	defer dx.Close()
	defer os.RemoveAll(durDir)

	// Deterministic update mix keyed on (seed, family, config): fresh
	// adds plus removes of existing edges.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", fam.Name, cfg, o.Seed)
	r := rng.New(h.Sum64())
	n := g.NumNodes()
	var ops []sling.EdgeOp
	for i := 0; i < n/2; i++ {
		ops = append(ops, sling.EdgeOp{Add: true,
			From: sling.NodeID(r.Intn(n)), To: sling.NodeID(r.Intn(n))})
	}
	for i := 0; i < n/4; i++ {
		u := sling.NodeID(r.Intn(n))
		outs := g.OutNeighbors(u)
		if len(outs) == 0 {
			continue
		}
		ops = append(ops, sling.EdgeOp{From: u, To: outs[r.Intn(len(outs))]})
	}
	applyStart := time.Now()
	if _, applied, err := dx.Apply(ops); err != nil {
		return nil, fmt.Errorf("apply: %w", err)
	} else if applied == 0 {
		return nil, fmt.Errorf("update mix applied no ops")
	}
	buildMS += float64(time.Since(applyStart).Nanoseconds()) / 1e6

	mutated := dx.Graph()
	truth, err := eval.GroundTruth(mutated, cfg.C)
	if err != nil {
		return nil, fmt.Errorf("mutated ground truth: %w", err)
	}

	staleCell := evaluateStale(o, fam, cfg, dx, truth)
	staleCell.BuildMS = buildMS
	cells := []Cell{staleCell}

	// Restore from the durable directory while the update mix is still a
	// pure WAL tail (initial snapshot + replayed records) and require
	// bitwise-identical answers from the restored twin.
	cells = append(cells, restoredCell(o, fam, cfg, dx, durDir, opts...))

	// Rebuild and compare bitwise against a clamped fresh build of the
	// mutated graph.
	rebuildStart := time.Now()
	if _, err := dx.Rebuild(); err != nil {
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	rebuildMS := float64(time.Since(rebuildStart).Nanoseconds()) / 1e6
	fresh, err := sling.Build(mutated, opts...)
	if err != nil {
		return nil, fmt.Errorf("fresh build of mutated graph: %w", err)
	}
	refRes := evaluate(o, fam, cfg, mutated, truth, newClampedBackend(NamedBackend(fresh, "memory")), nil)
	dynRes := evaluate(o, fam, cfg, mutated, truth,
		NamedBackend(dx, "dynamic-rebuilt"), refRes)
	dynRes.cell.BuildMS = rebuildMS
	cells = append(cells, dynRes.cell)

	// The swap wrote a snapshot; a post-rebuild restore runs the full
	// evaluation with the rebuilt index as its bitwise reference.
	restored, restoreMS, err := timed(func() (*sling.DynamicIndex, error) {
		return sling.RestoreDynamic(
			&sling.DynamicOptions{DurableDir: durDir, DurableReadOnly: true},
			opts...)
	})
	if err != nil {
		return nil, fmt.Errorf("restore after rebuild: %w", err)
	}
	restRes := evaluate(o, fam, cfg, mutated, truth,
		NamedBackend(restored, "dynamic-restored"), dynRes)
	restRes.cell.BuildMS = restoreMS
	restored.Close()
	cells = append(cells, restRes.cell)

	if o.HTTP {
		srv, err := server.NewDynamic(dx, nil, server.Config{})
		if err != nil {
			return nil, fmt.Errorf("dynamic server: %w", err)
		}
		httpRes := evaluate(o, fam, cfg, mutated, truth,
			NewHTTPBackend("http-dynamic", srv, mutated.NumNodes(), true), dynRes)
		cells = append(cells, httpRes.cell)
	}
	return cells, nil
}

// restoredCell restores a read-only twin from durDir mid-run — while
// the directory holds the initial snapshot plus the whole update mix as
// a WAL tail — and requires a sampled set of answers (affected-source
// rows, top-k, pairs, and a batch) to be bitwise-identical to the live
// instance's. Stale-phase answers route through the Monte Carlo
// fallback, so equality here proves the restored frontier, pool
// seeding, and graph all match exactly.
func restoredCell(o Options, fam workload.Family, cfg Config,
	dx *sling.DynamicIndex, durDir string, opts ...sling.BuildOption) Cell {

	cell := Cell{
		Family: fam.Name, Backend: "dynamic-restored-stale",
		N: dx.NumNodes(), M: dx.Graph().NumEdges(), C: cfg.C, Eps: cfg.Eps,
		BitwiseRef: "dynamic-stale", BitwiseOK: true,
		Violations: []string{},
	}
	fail := func(format string, args ...interface{}) {
		cell.BitwiseOK = false
		if len(cell.Violations) < 8 {
			cell.Violations = append(cell.Violations, fmt.Sprintf(format, args...))
		}
	}
	done := func() Cell {
		// The cell measures equality, not accuracy: its answers are the
		// reference's bit for bit, so it inherits that cell's error and
		// contributes only nominal headroom to the report minimum.
		cell.Headroom = cfg.Eps - cell.MaxErr
		cell.Pass = len(cell.Violations) == 0
		return cell
	}
	restored, restoreMS, err := timed(func() (*sling.DynamicIndex, error) {
		return sling.RestoreDynamic(
			&sling.DynamicOptions{DurableDir: durDir, DurableReadOnly: true},
			opts...)
	})
	cell.BuildMS = restoreMS
	if err != nil {
		fail("restore: %v", err)
		return done()
	}
	defer restored.Close()
	if got, want := restored.Graph().NumEdges(), dx.Graph().NumEdges(); got != want {
		fail("restored graph has %d edges, live has %d", got, want)
		return done()
	}

	ctx := context.Background()
	qstart := time.Now()
	aff := dx.AffectedNodes()
	sources := aff
	if len(sources) > 4 {
		sources = sources[:4]
	}
	for _, u := range sources {
		want, err := dx.SingleSource(ctx, u, nil)
		if err != nil {
			fail("live source(%d): %v", u, err)
			return done()
		}
		got, err := restored.SingleSource(ctx, u, nil)
		if err != nil {
			fail("restored source(%d): %v", u, err)
			return done()
		}
		cell.Queries++
		if !sameRows(got, want) {
			fail("restored source(%d) differs bitwise", u)
		}
		wantTK, err := dx.TopK(ctx, u, o.K)
		if err != nil {
			fail("live topk(%d): %v", u, err)
			return done()
		}
		gotTK, err := restored.TopK(ctx, u, o.K)
		if err != nil {
			fail("restored topk(%d): %v", u, err)
			return done()
		}
		cell.Queries++
		if !sameScored(gotTK, wantTK) {
			fail("restored topk(%d) differs bitwise", u)
		}
	}
	if len(sources) > 0 {
		wantB, err1 := dx.SingleSourceBatch(ctx, sources)
		gotB, err2 := restored.SingleSourceBatch(ctx, sources)
		if err1 != nil || err2 != nil {
			fail("batch: live err %v, restored err %v", err1, err2)
			return done()
		}
		cell.Queries += len(sources)
		for i := range sources {
			if !sameRows(gotB[i], wantB[i]) {
				fail("restored batch row for source %d differs bitwise", sources[i])
				break
			}
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "restored|%s|%s|%d", fam.Name, cfg, o.Seed)
	r := rng.New(h.Sum64())
	n := dx.NumNodes()
	for q := 0; q < 24 && len(aff) > 0; q++ {
		u := aff[r.Intn(len(aff))]
		v := sling.NodeID(r.Intn(n))
		want, err := dx.SimRank(ctx, u, v)
		if err != nil {
			fail("live simrank(%d,%d): %v", u, v, err)
			return done()
		}
		got, err := restored.SimRank(ctx, u, v)
		if err != nil {
			fail("restored simrank(%d,%d): %v", u, v, err)
			return done()
		}
		cell.Queries++
		if math.Float64bits(got) != math.Float64bits(want) {
			fail("restored simrank(%d,%d) differs bitwise", u, v)
		}
	}
	if cell.Queries > 0 {
		cell.AvgQueryUS = float64(time.Since(qstart).Nanoseconds()) / 1e3 / float64(cell.Queries)
	}
	return done()
}

// evaluateStale checks the pre-rebuild phase: answers touching the
// staleness frontier fall back to Monte Carlo estimation on the mutated
// graph and must still be within ε of exact SimRank. Derived walk counts
// make full-matrix sweeps expensive, so this cell samples affected
// sources and pairs instead.
func evaluateStale(o Options, fam workload.Family, cfg Config,
	dx *sling.DynamicIndex, truth *power.Scores) Cell {

	cell := Cell{
		Family: fam.Name, Backend: "dynamic-stale",
		N: dx.NumNodes(), M: dx.Graph().NumEdges(), C: cfg.C, Eps: cfg.Eps,
		Violations: []string{},
	}
	fail := func(format string, args ...interface{}) {
		if len(cell.Violations) < 8 {
			cell.Violations = append(cell.Violations, fmt.Sprintf(format, args...))
		}
	}
	aff := dx.AffectedNodes()
	if len(aff) == 0 {
		fail("update mix left no affected nodes")
		return cell
	}
	n := dx.NumNodes()
	h := fnv.New64a()
	fmt.Fprintf(h, "stale|%s|%s|%d", fam.Name, cfg, o.Seed)
	r := rng.New(h.Sum64())

	ctx := context.Background()
	qstart := time.Now()
	sources := aff
	if len(sources) > 4 {
		sources = sources[:4]
	}
	for _, u := range sources {
		row, err := dx.SingleSource(ctx, u, nil)
		if err != nil {
			fail("source(%d): %v", u, err)
			return cell
		}
		worst, err := eval.RowMaxError(truth, u, row)
		if err != nil {
			fail("source(%d): %v", u, err)
			return cell
		}
		cell.Queries++
		if worst > cell.MaxErr {
			cell.MaxErr = worst
		}
		if v := eval.RangeViolationSlice(row, 0, 1); v > 0 {
			fail("stale source %d leaves [0,1] by %.3g", u, v)
		}
		// Top-k consistency against the backend's own row.
		tk, err := dx.TopK(ctx, u, o.K)
		if err != nil {
			fail("stale topk(%d): %v", u, err)
			return cell
		}
		if !sameScored(tk, core.SelectTop(row, o.K, u)) {
			fail("stale topk(%d) inconsistent with own row", u)
		}
		cell.Queries++
	}
	// Pair queries with at least one affected endpoint, plus symmetry.
	for q := 0; q < 40; q++ {
		u := aff[r.Intn(len(aff))]
		v := sling.NodeID(r.Intn(n))
		s, err := dx.SimRank(ctx, u, v)
		if err != nil {
			fail("stale simrank(%d,%d): %v", u, v, err)
			return cell
		}
		cell.Queries++
		if e := eval.PairError(truth, u, v, s); e > cell.MaxErr {
			cell.MaxErr = e
		}
		rev, err := dx.SimRank(ctx, v, u)
		if err != nil {
			fail("stale simrank(%d,%d): %v", v, u, err)
			return cell
		}
		if d := math.Abs(s - rev); d > 2*cfg.Eps {
			// Each direction is within ε of the same exact score, so the
			// spread between the two coupled MC estimates is bounded by 2ε.
			fail("stale pair (%d,%d) asymmetry %.4f exceeds 2*eps", u, v, d)
		}
	}
	cell.AvgQueryUS = float64(time.Since(qstart).Nanoseconds()) / 1e3 / float64(cell.Queries)
	cell.Headroom = cfg.Eps - cell.MaxErr
	if cell.MaxErr > cfg.Eps {
		fail("stale max additive error %.6f exceeds eps %.4f", cell.MaxErr, cfg.Eps)
	}
	cell.Pass = len(cell.Violations) == 0
	return cell
}
