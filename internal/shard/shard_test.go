package shard

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"sling"
	"sling/internal/metrics"
	"sling/internal/rng"
)

var bg = context.Background()

func testGraph(n, m int, seed uint64) *sling.Graph {
	r := rng.New(seed)
	b := sling.NewGraphBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(sling.NodeID(r.Intn(n)), sling.NodeID(r.Intn(n)))
	}
	return b.Build()
}

func buildIndex(t *testing.T, g *sling.Graph) *sling.Index {
	t.Helper()
	ix, err := sling.Build(g, sling.WithEps(0.1), sling.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// newSharded builds an in-process sharded querier over ix.
func newSharded(t *testing.T, ix *sling.Index, nshards int, reg *metrics.Registry) *Querier {
	t.Helper()
	m, clients := InProcess(ix, nshards)
	q, err := New(m, clients, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func TestPlan(t *testing.T) {
	cases := []struct {
		name    string
		weights []int64
		nshards int
		want    [][2]int
	}{
		{"clamp-low", []int64{1, 1}, 0, [][2]int{{0, 2}}},
		{"clamp-high", []int64{5, 5}, 9, [][2]int{{0, 1}, {1, 2}}},
		{"even", []int64{1, 1, 1, 1}, 2, [][2]int{{0, 2}, {2, 4}}},
		{"skew-front", []int64{100, 1, 1, 1}, 2, [][2]int{{0, 1}, {1, 4}}},
		{"skew-back", []int64{1, 1, 1, 100}, 2, [][2]int{{0, 3}, {3, 4}}},
		{"all-zero", []int64{0, 0, 0}, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"empty", nil, 3, [][2]int{{0, 0}}},
	}
	for _, tc := range cases {
		got := Plan(tc.weights, tc.nshards)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: Plan = %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: Plan = %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

func TestPlanCoversAndBalances(t *testing.T) {
	g := testGraph(200, 900, 3)
	ix := buildIndex(t, g)
	weights := ix.EntryBytes()
	ranges := Plan(weights, 4)
	if len(ranges) != 4 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	lo := 0
	var total, biggest int64
	for _, w := range weights {
		total += w
	}
	for _, r := range ranges {
		if r[0] != lo || r[1] <= r[0] {
			t.Fatalf("ranges not contiguous and nonempty: %v", ranges)
		}
		lo = r[1]
		var sum int64
		for _, w := range weights[r[0]:r[1]] {
			sum += w
		}
		if sum > biggest {
			biggest = sum
		}
	}
	if lo != 200 {
		t.Fatalf("ranges cover [0,%d), want [0,200)", lo)
	}
	// Contiguous ranges cannot beat one node's weight, but on a random
	// graph byte balancing should keep the biggest shard well under half
	// the index.
	if biggest > total/2 {
		t.Fatalf("biggest shard holds %d of %d bytes", biggest, total)
	}
}

func TestManifestValidate(t *testing.T) {
	ok := &Manifest{Version: 1, Nodes: 4, Shards: []ShardInfo{{ID: 0, Lo: 0, Hi: 2}, {ID: 1, Lo: 2, Hi: 4}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Manifest{
		{Version: 2, Nodes: 4, Shards: []ShardInfo{{ID: 0, Lo: 0, Hi: 4}}},
		{Version: 1, Nodes: 4},
		{Version: 1, Nodes: 4, Shards: []ShardInfo{{ID: 0, Lo: 1, Hi: 4}}},
		{Version: 1, Nodes: 4, Shards: []ShardInfo{{ID: 0, Lo: 0, Hi: 2}, {ID: 1, Lo: 3, Hi: 4}}},
		{Version: 1, Nodes: 4, Shards: []ShardInfo{{ID: 0, Lo: 0, Hi: 2}, {ID: 0, Lo: 2, Hi: 4}}},
		{Version: 1, Nodes: 4, Shards: []ShardInfo{{ID: 0, Lo: 0, Hi: 3}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, m)
		}
	}
}

func TestManifestSaveLoad(t *testing.T) {
	m := &Manifest{
		Version: 1, Nodes: 10, C: 0.6, Eps: 0.1, Graph: "g.txt", Undirected: true,
		Shards: []ShardInfo{
			{ID: 0, Lo: 0, Hi: 7, Path: "shard-000.slix", Entries: 41, Bytes: 1234},
			{ID: 1, Lo: 7, Hi: 10, URL: "http://shard-1:8080", Entries: 12, Bytes: 567},
		},
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != m.Nodes || got.C != m.C || got.Eps != m.Eps || got.Graph != m.Graph || !got.Undirected {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if len(got.Shards) != 2 || got.Shards[1].URL != "http://shard-1:8080" || got.Shards[0].Bytes != 1234 {
		t.Fatalf("round trip lost shards: %+v", got.Shards)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load of missing path succeeded")
	}
}

// TestShardedBitwise pins the tentpole guarantee: for every shard count,
// including 1, every query answer is bitwise-identical to the unsharded
// reference.
func TestShardedBitwise(t *testing.T) {
	g := testGraph(120, 500, 11)
	ix := buildIndex(t, g)
	n := g.NumNodes()
	for _, nshards := range []int{1, 2, 3, 5} {
		q := newSharded(t, ix, nshards, nil)
		for u := 0; u < n; u += 7 {
			for v := 0; v < n; v += 13 {
				want, err := ix.SimRank(bg, sling.NodeID(u), sling.NodeID(v))
				if err != nil {
					t.Fatal(err)
				}
				got, err := q.SimRank(bg, sling.NodeID(u), sling.NodeID(v))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("shards=%d SimRank(%d,%d) = %x, want %x", nshards, u, v, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		for u := 0; u < n; u += 11 {
			want, err := ix.SingleSource(bg, sling.NodeID(u), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.SingleSource(bg, sling.NodeID(u), nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("shards=%d SingleSource(%d)[%d] = %x, want %x", nshards, u, v, math.Float64bits(got[v]), math.Float64bits(want[v]))
				}
			}
		}
		// k-pruned merge must reproduce global top-k for every k shape:
		// tiny, mid, k == n, and k > n.
		for _, k := range []int{1, 3, 10, n, n + 17} {
			for u := 0; u < n; u += 17 {
				want, err := ix.TopK(bg, sling.NodeID(u), k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := q.TopK(bg, sling.NodeID(u), k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("shards=%d TopK(%d,%d) len %d, want %d", nshards, u, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d TopK(%d,%d)[%d] = %+v, want %+v", nshards, u, k, i, got[i], want[i])
					}
				}
				wantST, err := ix.SourceTop(bg, sling.NodeID(u), k)
				if err != nil {
					t.Fatal(err)
				}
				gotST, err := q.SourceTop(bg, sling.NodeID(u), k)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotST) != len(wantST) {
					t.Fatalf("shards=%d SourceTop(%d,%d) len %d, want %d", nshards, u, k, len(gotST), len(wantST))
				}
				for i := range wantST {
					if gotST[i] != wantST[i] {
						t.Fatalf("shards=%d SourceTop(%d,%d)[%d] = %+v, want %+v", nshards, u, k, i, gotST[i], wantST[i])
					}
				}
			}
		}
	}
}

// TestShardedPairPlacement drives pairs chosen to land same-shard and
// cross-shard explicitly, rather than relying on strides to hit both.
func TestShardedPairPlacement(t *testing.T) {
	g := testGraph(80, 400, 5)
	ix := buildIndex(t, g)
	q := newSharded(t, ix, 3, nil)
	cases := [][2]sling.NodeID{}
	for i, s := range q.man.Shards {
		// Same-shard pair inside shard i (every shard has >= 1 node; a
		// single-node shard degenerates to u == v, also worth pinning).
		u, v := sling.NodeID(s.Lo), sling.NodeID(s.Hi-1)
		cases = append(cases, [2]sling.NodeID{u, v}, [2]sling.NodeID{u, u})
		if i > 0 {
			// Cross-shard pair spanning the boundary with shard i-1.
			cases = append(cases, [2]sling.NodeID{sling.NodeID(s.Lo - 1), u})
		}
	}
	for _, c := range cases {
		su, sv := q.shardOf(c[0]), q.shardOf(c[1])
		want, err := ix.SimRank(bg, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.SimRank(bg, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("SimRank(%d@%d,%d@%d) = %x, want %x", c[0], su, c[1], sv, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestShardedEmptyShard covers a shard whose node range holds only
// isolated nodes: no edges, so (almost) no HP entries beyond step 0.
func TestShardedEmptyShard(t *testing.T) {
	// Nodes 0..39 form a random graph; nodes 40..49 are isolated.
	r := rng.New(17)
	b := sling.NewGraphBuilder(50)
	for i := 0; i < 200; i++ {
		b.AddEdge(sling.NodeID(r.Intn(40)), sling.NodeID(r.Intn(40)))
	}
	g := b.Build()
	ix := buildIndex(t, g)
	m := &Manifest{Version: 1, Nodes: 50, C: ix.C(), Eps: ix.ErrorBound()}
	clients := []Client{}
	for i, r := range [][2]int{{0, 20}, {20, 40}, {40, 50}} {
		sx := ix.Shard(r[0], r[1])
		m.Shards = append(m.Shards, ShardInfo{ID: i, Lo: r[0], Hi: r[1], Bytes: sx.Bytes()})
		clients = append(clients, NewLocal(sx))
	}
	q, err := New(m, clients, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for _, u := range []sling.NodeID{0, 39, 40, 49} {
		want, err := ix.SingleSource(bg, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.SingleSource(bg, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("SingleSource(%d)[%d] differs on empty-shard deployment", u, v)
			}
		}
		wantTop, err := ix.TopK(bg, u, 10)
		if err != nil {
			t.Fatal(err)
		}
		gotTop, err := q.TopK(bg, u, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotTop) != len(wantTop) {
			t.Fatalf("TopK(%d) len %d, want %d", u, len(gotTop), len(wantTop))
		}
		for i := range wantTop {
			if gotTop[i] != wantTop[i] {
				t.Fatalf("TopK(%d)[%d] = %+v, want %+v", u, i, gotTop[i], wantTop[i])
			}
		}
	}
	// A cross-shard pair of two isolated nodes, and isolated-vs-connected.
	for _, c := range [][2]sling.NodeID{{40, 49}, {0, 45}, {45, 45}} {
		want, err := ix.SimRank(bg, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.SimRank(bg, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("SimRank(%d,%d) = %v, want %v", c[0], c[1], got, want)
		}
	}
}

func TestShardedKEdgeCases(t *testing.T) {
	g := testGraph(30, 120, 23)
	ix := buildIndex(t, g)
	q := newSharded(t, ix, 3, nil)
	for _, k := range []int{0, -4} {
		got, err := q.TopK(bg, 2, k)
		if err != nil || got != nil {
			t.Fatalf("TopK k=%d = (%v, %v), want (nil, nil)", k, got, err)
		}
		got, err = q.SourceTop(bg, 2, k)
		if err != nil || got != nil {
			t.Fatalf("SourceTop k=%d = (%v, %v), want (nil, nil)", k, got, err)
		}
	}
	if _, err := q.SimRank(bg, 0, 30); !errors.Is(err, sling.ErrNodeRange) {
		t.Fatalf("SimRank(0,30) err = %v, want ErrNodeRange", err)
	}
	if _, err := q.TopK(bg, -1, 3); !errors.Is(err, sling.ErrNodeRange) {
		t.Fatalf("TopK(-1) err = %v, want ErrNodeRange", err)
	}
	if _, err := q.SingleSourceBatch(bg, []sling.NodeID{1, 99}); !errors.Is(err, sling.ErrNodeRange) {
		t.Fatalf("batch with bad node err = %v, want ErrNodeRange", err)
	}
}

func TestShardedBatchAndCtx(t *testing.T) {
	g := testGraph(40, 160, 29)
	ix := buildIndex(t, g)
	q := newSharded(t, ix, 3, nil)
	us := []sling.NodeID{39, 0, 17, 0, 25}
	want, err := ix.SingleSourceBatch(bg, us)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.SingleSourceBatch(bg, us)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch len %d, want %d", len(got), len(want))
	}
	for i := range want {
		for v := range want[i] {
			if got[i][v] != want[i][v] {
				t.Fatalf("batch row %d (u=%d) differs at node %d", i, us[i], v)
			}
		}
	}
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := q.SimRank(cancelled, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimRank on cancelled ctx = %v", err)
	}
	if _, err := q.SingleSourceBatch(cancelled, us); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch on cancelled ctx = %v", err)
	}
}

func TestShardedMetricsAndMeta(t *testing.T) {
	g := testGraph(60, 240, 31)
	ix := buildIndex(t, g)
	reg := metrics.NewRegistry()
	q := newSharded(t, ix, 3, reg)
	if _, err := q.SingleSource(bg, 5, nil); err != nil {
		t.Fatal(err)
	}
	// Owner-computes: the owner records the fragment call and the slice
	// call; no other shard is called.
	owner := q.shardOf(5)
	for i, h := range q.fanout {
		want := uint64(0)
		if i == owner {
			want = 2
		}
		if got := h.Count(); got != want {
			t.Fatalf("shard %d (owner %d) recorded %d calls, want %d", i, owner, got, want)
		}
	}
	if !slices.Contains(reg.Names(), MetricFanout+" histogram") {
		t.Fatalf("registry has no %s histogram: %v", MetricFanout, reg.Names())
	}
	m := q.Meta()
	if m.Name != "sharded" || m.Nodes != 60 || m.C != ix.C() || m.Eps != ix.ErrorBound() || m.Bytes <= 0 {
		t.Fatalf("Meta = %+v", m)
	}
	if _, err := New(&Manifest{Version: 1, Nodes: 60, Shards: []ShardInfo{{Lo: 0, Hi: 60}}}, nil, nil); err == nil {
		t.Fatal("New accepted mismatched client count")
	}
}

func TestSplitRoundTrip(t *testing.T) {
	g := testGraph(70, 300, 37)
	ix := buildIndex(t, g)
	dir := t.TempDir()
	m, err := Split(ix, 3, dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Graph = "unused.txt"
	path := filepath.Join(dir, "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]Client, len(loaded.Shards))
	for i, s := range loaded.Shards {
		sx, err := sling.Open(Resolve(path, s.Path), g)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = NewLocal(sx)
	}
	q, err := New(loaded, clients, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for u := 0; u < 70; u += 9 {
		want, err := ix.SingleSource(bg, sling.NodeID(u), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.SingleSource(bg, sling.NodeID(u), nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("after disk round trip SingleSource(%d)[%d] = %x, want %x", u, v, math.Float64bits(got[v]), math.Float64bits(want[v]))
			}
		}
	}
	if loaded.C != ix.C() || loaded.Eps != ix.ErrorBound() {
		t.Fatalf("manifest params %v/%v, want %v/%v", loaded.C, loaded.Eps, ix.C(), ix.ErrorBound())
	}
}
