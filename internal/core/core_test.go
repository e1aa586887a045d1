package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"runtime"
	"sync"
	"testing"

	"sling/internal/graph"
	"sling/internal/power"
	"sling/internal/rng"
	"sling/internal/walk"
)

func randomGraph(n, m int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
	}
	return b.Build()
}

func groundTruth(t testing.TB, g *graph.Graph, c float64) *power.Scores {
	t.Helper()
	s, err := power.AllPairs(g, c, power.IterationsFor(1e-9, c))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildIndex(t testing.TB, g *graph.Graph, o *Options) *Index {
	t.Helper()
	x, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// must unwraps a query answer from a memory pool, whose resident entry
// source cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestResolveDefaultsMatchPaper(t *testing.T) {
	prm, err := (&Options{}).resolve(1000)
	if err != nil {
		t.Fatal(err)
	}
	if prm.c != 0.6 || prm.eps != 0.025 {
		t.Fatalf("defaults c=%v eps=%v", prm.c, prm.eps)
	}
	// The paper's ε_d = 0.005 comes from splitting ε; the split now runs
	// over ε less the float32 rounding share.
	if want := (0.025 - valueRounding) * (1 - 0.6) / 2; math.Abs(prm.epsD-want) > 1e-12 {
		t.Fatalf("default epsD = %v, want %v (the paper's 0.005 less half the rounding share)", prm.epsD, want)
	}
	// Paper's theta is 0.000725; the even error split gives ~0.000727.
	if math.Abs(prm.theta-0.000725) > 0.00002 {
		t.Fatalf("default theta = %v, far from the paper's 0.000725", prm.theta)
	}
	if prm.errorBound() > prm.eps+1e-12 {
		t.Fatalf("derived parameters violate Theorem 1: bound %v > eps %v", prm.errorBound(), prm.eps)
	}
	if prm.errorBound() != prm.eps {
		t.Fatalf("default error bound %v, want exactly eps %v", prm.errorBound(), prm.eps)
	}
	if math.Abs(prm.deltaD-1e-6) > 1e-15 {
		t.Fatalf("deltaD = %v, want 1/n² = 1e-6", prm.deltaD)
	}
}

// A stored key gives the node 32 − bits.Len(maxStoredStep) bits: 27 at
// the defaults, 25 at c = 0.8. A graph with more nodes than the split
// addresses is refused at build; there is no wider key.
func TestResolveRefusesNodesPastKeySpace(t *testing.T) {
	for _, c := range []struct {
		o    Options
		bits uint
	}{{Options{}, 27}, {Options{C: 0.8}, 25}, {Options{C: 0.999999, Theta: 1e-6}, 7}} {
		prm, err := c.o.resolve(1)
		if err != nil {
			t.Fatal(err)
		}
		if prm.nodeBits != c.bits {
			t.Fatalf("%+v: %d node bits, want %d", c.o, prm.nodeBits, c.bits)
		}
	}
	o := &Options{C: 0.999999, Theta: 1e-6}
	if _, err := o.resolve(128); err != nil {
		t.Fatalf("128 nodes in 7 node bits refused: %v", err)
	}
	if _, err := Build(graph.NewBuilder(129).Build(), o); err == nil {
		t.Fatal("Build accepted 129 nodes in 7 node bits")
	}
}

func TestResolveValidation(t *testing.T) {
	bad := []Options{
		{C: 1.5},
		{C: -0.1},
		{Eps: 2},
		{EpsD: -0.1},
		{Theta: 1.5},
		{Delta: 3},
		{Gamma: -1},
	}
	for i, o := range bad {
		if _, err := o.resolve(100); err == nil {
			t.Fatalf("case %d accepted: %+v", i, o)
		}
	}
}

func TestBuildEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	x := buildIndex(t, g, nil)
	if x.NumEntries() != 0 {
		t.Fatal("entries in empty index")
	}
}

func TestSingleNodeGraph(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	x := buildIndex(t, g, &Options{Eps: 0.1})
	if got := must(x.NewScratchPool().SimRank(0, 0)); math.Abs(got-1) > 0.1 {
		t.Fatalf("s(0,0) = %v", got)
	}
	if x.D(0) != 1 {
		t.Fatalf("dangling d = %v, want 1", x.D(0))
	}
}

func TestSelfLoopNode(t *testing.T) {
	b := graph.NewBuilder(1)
	b.AddEdge(0, 0)
	x := buildIndex(t, b.Build(), &Options{Eps: 0.1, Seed: 3})
	if got := must(x.NewScratchPool().SimRank(0, 0)); math.Abs(got-1) > 0.1 {
		t.Fatalf("s(0,0) = %v on self-loop", got)
	}
}

func TestCorrectionFactorExactCases(t *testing.T) {
	// Node 0: I = {1, 2}; nodes 1, 2 dangling (d = 1); node 3: I = {0}
	// (d = 1 - c).
	b := graph.NewBuilder(4)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	b.AddEdge(0, 3)
	g := b.Build()
	const c = 0.6
	x, st, err := BuildWithStats(g, &Options{C: c, Eps: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if x.D(1) != 1 || x.D(2) != 1 {
		t.Fatalf("dangling d values %v, %v", x.D(1), x.D(2))
	}
	if math.Abs(x.D(3)-(1-c)) > 1e-12 {
		t.Fatalf("single-parent d = %v, want %v", x.D(3), 1-c)
	}
	// Node 0: walks from 1 and 2 never meet after step 0 (both dangle),
	// so s(1,2)=0 and d_0 = 1 - c/2 exactly, with nothing sampled.
	if math.Abs(x.D(0)-(1-c/2)) > 1e-12 {
		t.Fatalf("d_0 = %v, want %v", x.D(0), 1-c/2)
	}
	if st.WalkPairs != 0 {
		t.Fatalf("every d_k is exact, yet the build drew %d walk pairs", st.WalkPairs)
	}
}

func TestCorrectionFactorsMatchExact(t *testing.T) {
	g := randomGraph(40, 200, 7)
	const c = 0.6
	truth := groundTruth(t, g, c)
	exact := ExactDFromScores(g, c, truth.At)
	x := buildIndex(t, g, &Options{C: c, Eps: 0.05, Seed: 9})
	for k := range exact {
		if d := math.Abs(x.D(graph.NodeID(k)) - exact[k]); d > x.EpsD() {
			t.Fatalf("d[%d] error %v > epsD %v", k, d, x.EpsD())
		}
	}
}

// Lemma 7: every stored HP underestimates the truth by at most
// θ·(1−(√c)^ℓ)/(1−√c), and never overestimates.
func TestHPEntriesSatisfyLemma7(t *testing.T) {
	g := randomGraph(30, 150, 11)
	const c = 0.6
	x := buildIndex(t, g, &Options{C: c, Eps: 0.08, Seed: 13, DisableSpaceReduction: true})
	maxL := x.Stats().MaxStep
	exact := walk.ExactHP(g, c, maxL)
	sqrtC := math.Sqrt(c)
	for v := 0; v < 30; v++ {
		keys, vals := x.EntriesOf(graph.NodeID(v))
		for i, key := range keys {
			l, k := keyStep(key), keyNode(key)
			h := exact[l][v][k]
			diff := vals[i] - h
			bound := (1 - math.Pow(sqrtC, float64(l))) / (1 - sqrtC) * x.Theta()
			// Stored values are h̃ rounded to float32: up to 2⁻²⁴ above it.
			if diff > h*0x1p-24+1e-12 {
				t.Fatalf("h̃(%d)(%d,%d) overestimates: %v > %v", l, v, k, vals[i], h)
			}
			if diff < -bound-1e-12 {
				t.Fatalf("h̃(%d)(%d,%d) error %v beyond Lemma 7 bound %v", l, v, k, diff, bound)
			}
		}
	}
}

// |H(v)| must respect the O(1/θ) bound Σ_ℓ (√c)^ℓ/θ = 1/(θ(1−√c)).
func TestHPSetSizeBound(t *testing.T) {
	g := randomGraph(50, 400, 15)
	x := buildIndex(t, g, &Options{Eps: 0.05, Seed: 17, DisableSpaceReduction: true})
	cap := 1/(x.Theta()*(1-math.Sqrt(x.C()))) + 1
	for v := graph.NodeID(0); v < 50; v++ {
		keys, _ := x.EntriesOf(v)
		if float64(len(keys)) > cap {
			t.Fatalf("|H(%d)| = %d exceeds bound %v", v, len(keys), cap)
		}
	}
}

func TestEntriesSortedAndAboveTheta(t *testing.T) {
	g := randomGraph(40, 240, 19)
	x := buildIndex(t, g, &Options{Eps: 0.06, Seed: 21})
	for v := graph.NodeID(0); v < 40; v++ {
		keys, vals := x.EntriesOf(v)
		for i := range keys {
			if i > 0 && keys[i-1] >= keys[i] {
				t.Fatalf("entries of %d not strictly sorted", v)
			}
			if vals[i] <= x.Theta() {
				t.Fatalf("stored entry %v at or below theta %v", vals[i], x.Theta())
			}
		}
	}
}

// The headline guarantee: every query within ErrorBound of ground truth.
func TestSinglePairAccuracy(t *testing.T) {
	g := randomGraph(40, 220, 23)
	const c = 0.6
	truth := groundTruth(t, g, c)
	x := buildIndex(t, g, &Options{C: c, Eps: 0.05, Seed: 25})
	p := x.NewScratchPool()
	worst := 0.0
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			got := must(p.SimRank(graph.NodeID(i), graph.NodeID(j)))
			if d := math.Abs(got - truth.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	if worst > x.ErrorBound() {
		t.Fatalf("worst error %v exceeds guarantee %v", worst, x.ErrorBound())
	}
}

func TestSelfScoresNearOne(t *testing.T) {
	g := randomGraph(30, 180, 27)
	x := buildIndex(t, g, &Options{Eps: 0.05, Seed: 29})
	p := x.NewScratchPool()
	for v := graph.NodeID(0); v < 30; v++ {
		got := must(p.SimRank(v, v))
		if math.Abs(got-1) > x.ErrorBound() {
			t.Fatalf("s(%d,%d) = %v", v, v, got)
		}
	}
}

func TestQuerySymmetry(t *testing.T) {
	g := randomGraph(35, 210, 31)
	x := buildIndex(t, g, &Options{Eps: 0.06, Seed: 33})
	p := x.NewScratchPool()
	for i := graph.NodeID(0); i < 35; i++ {
		for j := i + 1; j < 35; j++ {
			a, b := must(p.SimRank(i, j)), must(p.SimRank(j, i))
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("asymmetric: s(%d,%d)=%v s(%d,%d)=%v", i, j, a, j, i, b)
			}
		}
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	g := randomGraph(50, 300, 35)
	x1 := buildIndex(t, g, &Options{Eps: 0.06, Seed: 37, Workers: 1})
	x4 := buildIndex(t, g, &Options{Eps: 0.06, Seed: 37, Workers: 4})
	if len(x1.keys) != len(x4.keys) {
		t.Fatalf("entry counts differ: %d vs %d", len(x1.keys), len(x4.keys))
	}
	for i := range x1.keys {
		if x1.keys[i] != x4.keys[i] || x1.vals[i] != x4.vals[i] {
			t.Fatalf("entry %d differs across worker counts", i)
		}
	}
	for k := range x1.d {
		if x1.d[k] != x4.d[k] {
			t.Fatalf("d[%d] differs across worker counts", k)
		}
	}
}

func TestBasicEstimatorAblation(t *testing.T) {
	g := randomGraph(25, 140, 39)
	const c = 0.6
	truth := groundTruth(t, g, c)
	exact := ExactDFromScores(g, c, truth.At)
	_, stBasic, err := BuildWithStats(g, &Options{C: c, Eps: 0.08, Seed: 41, BasicEstimator: true})
	if err != nil {
		t.Fatal(err)
	}
	xAdaptive, stAdaptive, err := BuildWithStats(g, &Options{C: c, Eps: 0.08, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 4's raison d'être: far fewer walk pairs than Algorithm 1.
	if stAdaptive.WalkPairs*2 > stBasic.WalkPairs {
		t.Fatalf("adaptive used %d pairs vs basic %d — no saving", stAdaptive.WalkPairs, stBasic.WalkPairs)
	}
	for k := range exact {
		if d := math.Abs(xAdaptive.D(graph.NodeID(k)) - exact[k]); d > xAdaptive.EpsD() {
			t.Fatalf("adaptive d[%d] error %v > epsD", k, d)
		}
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	g := randomGraph(30, 180, 43)
	_, st, err := BuildWithStats(g, &Options{Eps: 0.06, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries <= 0 || st.HPPushes <= 0 || st.WalkPairs <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestIndexStats(t *testing.T) {
	g := randomGraph(30, 180, 47)
	x := buildIndex(t, g, &Options{Eps: 0.06, Seed: 49})
	st := x.Stats()
	if st.Nodes != 30 || st.Entries != x.NumEntries() {
		t.Fatalf("stats mismatch: %+v", st)
	}
	if st.Bytes != x.Bytes() || st.Bytes <= 0 {
		t.Fatalf("byte accounting wrong: %+v", st)
	}
	if st.MaxEntries <= 0 || st.AvgEntries <= 0 {
		t.Fatalf("entry stats empty: %+v", st)
	}
}

func BenchmarkBuildSmall(b *testing.B) {
	g := randomGraph(500, 3000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, &Options{Eps: 0.05, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSinglePairQuery(b *testing.B) {
	g := randomGraph(2000, 16000, 1)
	x, err := Build(g, &Options{Eps: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := x.NewScratchPool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SimRank(graph.NodeID(i%2000), graph.NodeID((i*13)%2000))
	}
}

// The serialized byte stream for a fixed (graph, options, seed) must stay
// stable across refactors: the on-disk format is a compatibility surface.
// If this test fails because the format deliberately changed, bump
// indexVersion and update the checksum.
func TestSerializedFormatGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("stream recorded on amd64; other targets may fuse multiply-adds")
	}
	g := randomGraph(25, 120, 900)
	x := buildIndex(t, g, &Options{Eps: 0.1, Seed: 901, Enhance: true})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	const (
		wantVersion = 3
		wantCRC64   = 0x0a2abe8b6b4668b4
	)
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:]); v != wantVersion {
		t.Fatalf("stream version %d, want %d", v, wantVersion)
	}
	if sum := crc64.Checksum(buf.Bytes(), crc64.MakeTable(crc64.ECMA)); sum != wantCRC64 {
		t.Fatalf("index bytes=%d crc64=%#x, want crc64=%#x", buf.Len(), sum, uint64(wantCRC64))
	}
	// Re-reading must reproduce identical bytes.
	x2, err := ReadIndex(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if _, err := x2.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("write-read-write is not byte-identical")
	}
}

func TestConcurrentScratchIsolation(t *testing.T) {
	g := randomGraph(50, 300, 125)
	x := buildIndex(t, g, &Options{Eps: 0.05, Seed: 127, Enhance: true})
	p := x.NewScratchPool()
	want := make([]float64, 50)
	for v := 0; v < 50; v++ {
		want[v] = must(p.SimRank(11, graph.NodeID(v)))
	}
	var wg sync.WaitGroup
	bad := make(chan struct{}, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 50)
			for rep := 0; rep < 30; rep++ {
				for v := 0; v < 50; v++ {
					if must(p.SimRank(11, graph.NodeID(v))) != want[v] {
						bad <- struct{}{}
						return
					}
				}
				must(p.SingleSource(11, out))
			}
		}()
	}
	wg.Wait()
	close(bad)
	if _, isBad := <-bad; isBad {
		t.Fatal("concurrent queries with separate scratches diverged")
	}
}
