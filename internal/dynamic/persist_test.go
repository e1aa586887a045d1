package dynamic

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sling/internal/core"
	"sling/internal/durable"
	"sling/internal/graph"
	"sling/internal/rng"
)

// durableFor returns test-speed durable options for dir: fsync off, tiny
// segments so multi-segment chains appear under small op counts.
func durableFor(dir string) *durable.Options {
	return &durable.Options{Dir: dir, NoSync: true, SegmentBytes: 256}
}

// compareBitwise requires a and b to answer every sampled query — pair,
// single-source, top-k, source-top, and batch — with bit-identical
// float64s.
func compareBitwise(t *testing.T, label string, a, b *Dynamic, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	for q := 0; q < 40; q++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if x, y := a.SimRank(u, v), b.SimRank(u, v); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: SimRank(%d,%d) = %v vs %v", label, u, v, x, y)
		}
	}
	sameTop := func(x, y []core.TopEntry) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].Node != y[i].Node || math.Float64bits(x[i].Score) != math.Float64bits(y[i].Score) {
				return false
			}
		}
		return true
	}
	sources := make([]graph.NodeID, 5)
	for i := range sources {
		sources[i] = graph.NodeID(r.Intn(n))
	}
	for _, u := range sources {
		x, y := a.SingleSource(u, nil), b.SingleSource(u, nil)
		for v := range x {
			if math.Float64bits(x[v]) != math.Float64bits(y[v]) {
				t.Fatalf("%s: SingleSource(%d)[%d] = %v vs %v", label, u, v, x[v], y[v])
			}
		}
		if x, y := a.TopK(u, 6), b.TopK(u, 6); !sameTop(x, y) {
			t.Fatalf("%s: TopK(%d) = %+v vs %+v", label, u, x, y)
		}
		if x, y := a.SourceTop(u, 4), b.SourceTop(u, 4); !sameTop(x, y) {
			t.Fatalf("%s: SourceTop(%d) = %+v vs %+v", label, u, x, y)
		}
	}
	xb, err := a.SingleSourceBatch(nil, sources, 2)
	if err != nil {
		t.Fatalf("%s: batch: %v", label, err)
	}
	yb, err := b.SingleSourceBatch(nil, sources, 2)
	if err != nil {
		t.Fatalf("%s: batch: %v", label, err)
	}
	for i := range sources {
		for v := range xb[i] {
			if math.Float64bits(xb[i][v]) != math.Float64bits(yb[i][v]) {
				t.Fatalf("%s: batch row %d diverges at %d", label, i, v)
			}
		}
	}
}

// A fresh durable directory gets an initial snapshot at build time, so a
// crash before the first update already restores, and a second New on a
// non-empty directory is refused (Restore is the right verb there).
func TestDurableInitialSnapshotAndStateExists(t *testing.T) {
	dir := t.TempDir()
	g, _ := randomGraph(18, 50, 1)
	opts := Options{Build: core.Options{Eps: 0.1, Seed: 11}, NumWalks: 32, Durable: durableFor(dir)}
	d, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	st := d.Stats().Durable
	if !st.Enabled || st.SnapshotsWritten != 1 || st.LSN != 0 {
		t.Fatalf("initial durable stats = %+v", st)
	}
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.slsnap"))
	if err != nil || len(names) != 1 {
		t.Fatalf("snapshot files = %v, err %v", names, err)
	}

	ro := opts
	ro.Durable = &durable.Options{Dir: dir, ReadOnly: true}
	r, err := Restore(ro)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	compareBitwise(t, "pristine restore", d, r, 18, 2)

	if _, err := New(g, opts); !errors.Is(err, ErrStateExists) {
		t.Fatalf("New on a populated durable dir: err = %v, want ErrStateExists", err)
	}
}

// Updates journal before applying; a read-only restore while the live
// instance still holds the directory replays the WAL tail and answers
// the stale phase bit-identically, including the Monte Carlo fallback.
func TestDurableRestoreReplaysWALTail(t *testing.T) {
	dir := t.TempDir()
	g, edges := randomGraph(24, 80, 3)
	opts := Options{Build: core.Options{Eps: 0.1, Seed: 5}, NumWalks: 48, Durable: durableFor(dir)}
	d, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	applyRandomOps(t, d, edges, 24, 60, 17)
	if st := d.Stats().Durable; st.LSN == 0 || st.WALSegments < 2 {
		t.Fatalf("update mix left durable stats %+v, want records across segments", st)
	}

	ro := opts
	ro.Durable = &durable.Options{Dir: dir, ReadOnly: true}
	r, err := Restore(ro)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.Stats(), d.Stats(); got.Epoch != want.Epoch ||
		got.StaleOps != want.StaleOps || got.AffectedNodes != want.AffectedNodes ||
		got.TotalOps != want.TotalOps {
		t.Fatalf("restored stats %+v, live %+v", got, want)
	}
	compareBitwise(t, "stale restore", d, r, 24, 4)
}

// The epoch swap writes a snapshot, so a restore after Rebuild reloads
// the rebuilt index (not the original plus a replay) and answers
// bit-identically with a clean frontier, serving the base graph it
// loaded rather than a second copy of it.
func TestDurableRestoreAfterRebuild(t *testing.T) {
	dir := t.TempDir()
	g, edges := randomGraph(20, 60, 7)
	opts := Options{Build: core.Options{Eps: 0.1, Seed: 9}, NumWalks: 32, Durable: durableFor(dir)}
	d, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	applyRandomOps(t, d, edges, 20, 40, 23)
	epoch, err := d.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("rebuild swapped to epoch %d, want 2", epoch)
	}

	ro := opts
	ro.Durable = &durable.Options{Dir: dir, ReadOnly: true}
	r, err := Restore(ro)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Epoch != 2 || st.StaleOps != 0 || st.AffectedNodes != 0 {
		t.Fatalf("restored post-rebuild stats %+v, want clean epoch 2", st)
	}
	if r.Graph() != r.cur.Load().gen.ix.Graph() {
		t.Fatal("restore with nothing pending holds a second copy of the base graph")
	}
	compareBitwise(t, "post-rebuild restore", d, r, 20, 6)
}

// Restore replays the log's recovered snapshot and WAL tail, then has
// the log drop them: a restored instance holds its log for appends, and
// the snapshot alone carries the index bytes and two edge lists. The
// instance must still snapshot, rebuild and close, and a later restore
// must see what it wrote.
func TestRestoreReleasesRecoveredState(t *testing.T) {
	dir := t.TempDir()
	g, edges := randomGraph(20, 60, 81)
	opts := Options{Build: core.Options{Eps: 0.1, Seed: 82}, NumWalks: 16, Durable: durableFor(dir)}
	d, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRandomOps(t, d, edges, 20, 20, 83)
	if _, err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	applyRandomOps(t, d, edges, 20, 20, 84)
	d.Close()

	lg, err := durable.Open(*durableFor(dir))
	if err != nil {
		t.Fatal(err)
	}
	if lg.Snapshot() == nil || len(lg.Tail()) == 0 {
		t.Fatal("setup left no snapshot and WAL tail to recover")
	}
	lg.Close()

	r, err := Restore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.wal.Snapshot() != nil || r.wal.Tail() != nil {
		t.Fatal("restored log still holds the recovered snapshot or WAL tail")
	}
	applyRandomOps(t, r, edges, 20, 10, 85)
	if _, err := r.Snapshot(); err != nil {
		t.Fatalf("Snapshot after restore: %v", err)
	}
	if epoch, err := r.Rebuild(); err != nil || epoch != 2 {
		t.Fatalf("Rebuild after restore: epoch %d, err %v; want epoch 2", epoch, err)
	}
	r.Close()

	again, err := Restore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if st := again.Stats(); st.Epoch != 2 || st.StaleOps != 0 {
		t.Fatalf("second restore stats %+v, want clean epoch 2", st)
	}
}

// Snapshot is the manual checkpoint: it must cover every journaled op
// (LSN equality with the WAL head) and cut the tail a later restore has
// to replay.
func TestDurableManualSnapshot(t *testing.T) {
	dir := t.TempDir()
	g, edges := randomGraph(16, 40, 13)
	opts := Options{Build: core.Options{Eps: 0.1, Seed: 3}, NumWalks: 32, Durable: durableFor(dir)}
	d, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	applyRandomOps(t, d, edges, 16, 30, 29)

	lsn, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats().Durable
	if lsn != st.LSN || st.LastSnapshotLSN != lsn || st.SnapshotsWritten != 2 {
		t.Fatalf("manual snapshot: lsn %d, durable stats %+v", lsn, st)
	}

	ro := opts
	ro.Durable = &durable.Options{Dir: dir, ReadOnly: true}
	r, err := Restore(ro)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	compareBitwise(t, "manual snapshot restore", d, r, 16, 8)
}

func TestDurableSentinels(t *testing.T) {
	g, _ := randomGraph(8, 12, 1)
	opts := Options{Build: core.Options{Eps: 0.1, Seed: 1}, NumWalks: 16}

	if _, err := Restore(opts); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Restore without durable options: err = %v, want ErrNotDurable", err)
	}
	empty := opts
	empty.Durable = durableFor(t.TempDir())
	if _, err := Restore(empty); !errors.Is(err, ErrNoState) {
		t.Fatalf("Restore of an empty dir: err = %v, want ErrNoState", err)
	}

	d, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Snapshot(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Snapshot without durable options: err = %v, want ErrNotDurable", err)
	}
}

// TestKillRestartEquivalence is the durability property test: random op
// batches stream into a durably backed instance whose WAL dies at a
// random byte offset mid-record. The batch that hit the fault reports an
// error (and must leave no state behind); recovery truncates the torn
// record and the restored instance must answer bit-identically to a
// clean, never-crashed replay of exactly the acknowledged batches.
func TestKillRestartEquivalence(t *testing.T) {
	cases := []struct {
		n, m, batches int
		rebuildAt     int // batch index to force an epoch swap at; -1 none
		seed          uint64
	}{
		{n: 18, m: 50, batches: 24, rebuildAt: -1, seed: 41},
		{n: 24, m: 90, batches: 30, rebuildAt: 10, seed: 42},
		{n: 30, m: 120, batches: 36, rebuildAt: 18, seed: 43},
	}
	for _, tc := range cases {
		g, _ := randomGraph(tc.n, tc.m, tc.seed)
		build := core.Options{Eps: 0.1, Seed: tc.seed + 1}
		mkBatch := func(r *rng.Source) []Op {
			ops := make([]Op, 1+r.Intn(5))
			for i := range ops {
				ops[i] = Op{Add: r.Intn(3) != 0,
					From: graph.NodeID(r.Intn(tc.n)), To: graph.NodeID(r.Intn(tc.n))}
			}
			return ops
		}

		// Probe run: same batches against a clean durable instance to
		// learn how many record bytes the full sequence journals.
		probeDir := t.TempDir()
		probe, err := New(g, Options{Build: build, NumWalks: 32, Durable: durableFor(probeDir)})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(tc.seed + 7)
		for i := 0; i < tc.batches; i++ {
			if _, _, err := probe.Apply(mkBatch(r)); err != nil {
				t.Fatal(err)
			}
			if i == tc.rebuildAt {
				if _, err := probe.Rebuild(); err != nil {
					t.Fatal(err)
				}
			}
		}
		pst := probe.Stats().Durable
		recordBytes := pst.WALBytes - int64(pst.WALSegments)*16 // headers don't count
		probe.Close()
		if recordBytes <= 0 {
			t.Fatalf("probe journaled no record bytes: %+v", pst)
		}

		// Victim run: same sequence, WAL dies at a random record offset.
		fr := rng.New(tc.seed + 101)
		dir := t.TempDir()
		vopt := durableFor(dir)
		vopt.FailAfterBytes = 1 + int64(fr.Intn(int(recordBytes)))
		victim, err := New(g, Options{Build: build, NumWalks: 32, Durable: vopt})
		if err != nil {
			t.Fatal(err)
		}
		var acked [][]Op
		rebuilt := false
		r = rng.New(tc.seed + 7)
		crashed := false
		for i := 0; i < tc.batches; i++ {
			ops := mkBatch(r)
			if _, _, err := victim.Apply(ops); err != nil {
				if !errors.Is(err, durable.ErrInjectedFault) {
					t.Fatalf("batch %d: %v", i, err)
				}
				crashed = true
				break
			}
			acked = append(acked, ops)
			if i == tc.rebuildAt {
				if _, err := victim.Rebuild(); err != nil {
					if !errors.Is(err, durable.ErrInjectedFault) {
						t.Fatalf("rebuild: %v", err)
					}
					crashed = true
					break
				}
				rebuilt = true
			}
		}
		victim.Close()

		// Recovery reopens read-write: the torn record is physically
		// truncated, then the snapshot plus surviving tail replays.
		restored, err := Restore(Options{Build: build, NumWalks: 32, Durable: durableFor(dir)})
		if err != nil {
			t.Fatalf("restore after crash (crashed=%v): %v", crashed, err)
		}

		// Clean twin: never crashed, sees exactly the acknowledged batches
		// with the epoch swap (when the victim got that far) replayed at
		// the same position in the sequence.
		twin, err := New(g, Options{Build: build, NumWalks: 32})
		if err != nil {
			t.Fatal(err)
		}
		for i, ops := range acked {
			if _, _, err := twin.Apply(ops); err != nil {
				t.Fatal(err)
			}
			if rebuilt && i == tc.rebuildAt {
				if _, err := twin.Rebuild(); err != nil {
					t.Fatal(err)
				}
			}
		}
		compareBitwise(t, "kill-restart", restored, twin, tc.n, tc.seed+5)
		restored.Close()
		twin.Close()
	}
}

// A crash that tears the final record must not lose the acknowledged
// prefix: this pins the physical repair by checking the directory is
// reopened read-write (truncation happened) and the restored LSN equals
// the count of acknowledged batches that journaled.
func TestKillRestartTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	g, _ := randomGraph(12, 30, 51)
	build := core.Options{Eps: 0.1, Seed: 52}
	vopt := &durable.Options{Dir: dir, NoSync: true, FailAfterBytes: 100}
	d, err := New(g, Options{Build: build, NumWalks: 16, Durable: vopt})
	if err != nil {
		t.Fatal(err)
	}
	acked, faulted := uint64(0), false
	for i := 0; i < 20; i++ {
		u := graph.NodeID(i % 12)
		v := graph.NodeID((i*5 + 1) % 12)
		_, n, err := d.Apply([]Op{{Add: true, From: u, To: v}})
		if err != nil {
			if !errors.Is(err, durable.ErrInjectedFault) {
				t.Fatal(err)
			}
			faulted = true
			break
		}
		if n > 0 { // no-op batches (duplicate adds) never journal
			acked++
		}
	}
	d.Close()
	if acked == 0 || !faulted {
		t.Fatalf("fault point produced %d journaled batches, faulted=%v; want a strict prefix", acked, faulted)
	}

	r, err := Restore(Options{Build: build, NumWalks: 16, Durable: &durable.Options{Dir: dir, NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats().Durable; st.LSN != acked {
		t.Fatalf("restored LSN %d, want %d acknowledged batches", st.LSN, acked)
	}
	// The repair is physical: a fresh read-only open (no truncation
	// rights) of the same directory must now succeed too.
	lg, err := durable.Open(durable.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only reopen after repair: %v", err)
	}
	lg.Close()
}

// Close while a durable directory is attached must release the WAL file
// handles so the directory can be reopened read-write immediately.
func TestDurableCloseReleasesDir(t *testing.T) {
	dir := t.TempDir()
	g, edges := randomGraph(10, 24, 61)
	opts := Options{Build: core.Options{Eps: 0.1, Seed: 62}, NumWalks: 16, Durable: durableFor(dir)}
	d, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRandomOps(t, d, edges, 10, 12, 63)
	d.Close()
	if _, _, err := d.Apply([]Op{{Add: true, From: 0, To: 1}}); err != ErrClosed {
		t.Fatalf("Apply after Close: err = %v, want ErrClosed", err)
	}

	r, err := Restore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot(); err != nil {
		t.Fatalf("snapshot on reopened dir: %v", err)
	}
	r.Close()

	// Directory contents stay parseable by the inspector.
	rep, err := durable.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt() {
		t.Fatalf("inspect flags problems: %v", rep.Problems)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stray tmp file %s", e.Name())
		}
	}
}

// Restore must refuse, with durable.ErrCorrupt, durable state that
// replays to something other than what was journaled: a snapshot whose
// edge section disagrees with base + pending, a WAL record that re-adds
// a present edge, and a WAL record naming a node outside the graph. Each
// case tampers with a closed instance's directory through the durable
// API, so every file still passes its CRC.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	const n = 16
	g, _ := randomGraph(n, 40, 71)
	opts := func(dir string) Options {
		return Options{Build: core.Options{Eps: 0.1, Seed: 72}, NumWalks: 16, Durable: durableFor(dir)}
	}
	// closedState leaves a directory whose newest snapshot carries a
	// pending tail and whose WAL has records past it.
	closedState := func() string {
		dir := t.TempDir()
		d, err := New(g, opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		for i, ops := range [][]Op{
			{{Add: true, From: 0, To: 9}, {From: 0, To: 9}, {Add: true, From: 3, To: 5}},
			{{Add: true, From: 6, To: 2}},
		} {
			if _, _, err := d.Apply(ops); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if _, err := d.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		d.Close()
		return dir
	}
	// rewrite re-journals the newest snapshot with its edge sections
	// edited on copies.
	rewrite := func(edit func(s *durable.Snapshot)) func(*durable.Log) error {
		return func(lg *durable.Log) error {
			s := *lg.Snapshot()
			s.Edges = append([]durable.Edge(nil), s.Edges...)
			s.BaseEdges = append([]durable.Edge(nil), s.BaseEdges...)
			edit(&s)
			return lg.WriteSnapshot(&s)
		}
	}
	cases := []struct {
		name   string
		tamper func(*durable.Log) error
		want   string // names the check that must fire
	}{
		{"snapshot edges drop one", rewrite(func(s *durable.Snapshot) {
			s.Edges = s.Edges[1:]
		}), "disagrees with base"},
		{"snapshot edges repeat one", rewrite(func(s *durable.Snapshot) {
			s.Edges[0] = s.Edges[1]
		}), "disagrees with base"},
		{"snapshot base edge names node n", rewrite(func(s *durable.Snapshot) {
			s.BaseEdges[0].To = n
		}), "out of range"},
		{"snapshot base node count past the node ID range", rewrite(func(s *durable.Snapshot) {
			s.BaseNodes = math.MaxInt32 + 1
		}), "node ID range"},
		{"WAL re-adds a present edge", func(lg *durable.Log) error {
			e := lg.Snapshot().Edges[0]
			_, err := lg.Append([]durable.Op{{Add: true, From: e.From, To: e.To}})
			return err
		}, "no-op"},
		{"WAL names a node past n", func(lg *durable.Log) error {
			_, err := lg.Append([]durable.Op{{Add: true, From: 2, To: n}})
			return err
		}, "out of range"},
	}
	for _, tc := range cases {
		dir := closedState()
		lg, err := durable.Open(*durableFor(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.tamper(lg); err != nil {
			t.Fatalf("%s: tampering: %v", tc.name, err)
		}
		lg.Close()
		d, err := Restore(opts(dir))
		if err == nil {
			d.Close()
			t.Fatalf("%s: Restore accepted the tampered state", tc.name)
		}
		if !errors.Is(err, durable.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Restore error %q, want durable.ErrCorrupt naming %q", tc.name, err, tc.want)
		}
	}
	// The untampered state restores, so each refusal above is the
	// tampering's doing.
	d, err := Restore(opts(closedState()))
	if err != nil {
		t.Fatalf("pristine state: %v", err)
	}
	d.Close()
}
