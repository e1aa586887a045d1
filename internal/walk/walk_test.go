package walk

import (
	"math"
	"testing"

	"sling/internal/graph"
	"sling/internal/rng"
)

// cycle returns a directed n-cycle 0->1->...->0, where every node has
// exactly one in-neighbor.
func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build()
}

// star returns a graph where nodes 1..n-1 all point to node 0
// (so node 0 has n-1 in-neighbors and the others have none).
func star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(i), 0)
	}
	return b.Build()
}

func TestNewRejectsBadDecay(t *testing.T) {
	for _, c := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("c=%v accepted", c)
				}
			}()
			New(cycle(3), c, rng.New(1))
		}()
	}
}

// The stopping coin compares a draw's top 53 bits with ⌈√c·2⁵³⌉. That
// must be exactly rng.Bernoulli(√c): the threshold and the integer below
// it fall on either side of √c, and a walker stepping round a cycle
// stays in lockstep with a reference stream that draws Bernoulli(√c)
// and then, on continuing, Intn(1).
func TestStopCoinIsBernoulli(t *testing.T) {
	for _, c := range []float64{1e-9, 0.25, 0.6, 0.8, 0.999999} {
		w := New(cycle(3), c, rng.New(1))
		k := w.goOn
		if !(float64(k-1)/(1<<53) < w.sqrtC) || float64(k)/(1<<53) < w.sqrtC {
			t.Fatalf("c=%v: threshold %d is not ⌈√c·2⁵³⌉", c, k)
		}
		ref := rng.New(1)
		for i := 0; i < 10000; i++ {
			_, ok := w.step(0)
			want := ref.Bernoulli(w.sqrtC)
			if want {
				ref.Intn(1)
			}
			if ok != want {
				t.Fatalf("c=%v: step %d continued=%v, Bernoulli(√c)=%v", c, i, ok, want)
			}
		}
		if w.Rng().Uint64() != ref.Uint64() {
			t.Fatalf("c=%v: walker stream drifted from the reference", c)
		}
	}
}

// The pair kernel's "both continue" coin is the same compare against
// ⌈c·2⁵³⌉, so it is exactly rng.Bernoulli(c): on a cycle two walks from
// different nodes never meet, and each lockstep step draws the coin and
// then, on continuing, one Intn(1) per walk.
func TestPairCoinIsBernoulli(t *testing.T) {
	for _, c := range []float64{1e-9, 0.25, 0.6, 0.8} {
		w := New(cycle(3), c, rng.New(1))
		k := w.bothOn
		if !(float64(k-1)/(1<<53) < c) || float64(k)/(1<<53) < c {
			t.Fatalf("c=%v: threshold %d is not ⌈c·2⁵³⌉", c, k)
		}
		ref := rng.New(1)
		for i := 0; i < 2000; i++ {
			if w.PairMeetsAfterStart(0, 1) {
				t.Fatalf("c=%v: walks met on a cycle", c)
			}
			for ref.Bernoulli(c) {
				ref.Intn(1)
				ref.Intn(1)
			}
		}
		if w.Rng().Uint64() != ref.Uint64() {
			t.Fatalf("c=%v: walker stream drifted from the reference", c)
		}
	}
}

func TestWalkLengthGeometric(t *testing.T) {
	// On a cycle every node has an in-neighbor, so walk length (number of
	// steps taken) is geometric with success probability 1-√c and mean
	// √c/(1-√c).
	g := cycle(10)
	const c = 0.6
	w := New(g, c, rng.New(7))
	const trials = 200000
	var total float64
	buf := make([]graph.NodeID, 0, 32)
	for i := 0; i < trials; i++ {
		buf = w.SqrtCWalk(0, buf[:0])
		total += float64(len(buf) - 1)
	}
	mean := total / trials
	sqrtC := math.Sqrt(c)
	want := sqrtC / (1 - sqrtC)
	if math.Abs(mean-want) > 0.05 {
		t.Fatalf("mean walk length %v, want about %v", mean, want)
	}
}

func TestWalkStartsAtSource(t *testing.T) {
	w := New(cycle(5), 0.6, rng.New(3))
	for i := 0; i < 100; i++ {
		path := w.SqrtCWalk(2, nil)
		if len(path) == 0 || path[0] != 2 {
			t.Fatalf("walk does not start at source: %v", path)
		}
	}
}

func TestWalkFollowsInEdges(t *testing.T) {
	g := cycle(5) // in-neighbor of v is v-1 mod 5
	w := New(g, 0.8, rng.New(5))
	for i := 0; i < 200; i++ {
		path := w.SqrtCWalk(3, nil)
		for j := 1; j < len(path); j++ {
			want := (int(path[j-1]) + 4) % 5
			if int(path[j]) != want {
				t.Fatalf("illegal transition %d -> %d", path[j-1], path[j])
			}
		}
	}
}

func TestWalkStopsAtDanglingNode(t *testing.T) {
	g := star(4) // nodes 1..3 have no in-neighbors
	w := New(g, 0.99, rng.New(9))
	for i := 0; i < 100; i++ {
		path := w.SqrtCWalk(0, nil)
		if len(path) > 2 {
			t.Fatalf("walk continued past a dangling node: %v", path)
		}
	}
}

func TestPairMeetsSameNode(t *testing.T) {
	w := New(cycle(4), 0.6, rng.New(11))
	for i := 0; i < 50; i++ {
		if !w.PairMeets(1, 1) {
			t.Fatal("PairMeets(u,u) must always be true")
		}
	}
}

// On the directed n-cycle two walks from different nodes can never meet:
// both walks move backwards deterministically in lockstep, preserving
// their (nonzero) circular distance. So s(u,v)=0 for u!=v.
func TestPairNeverMeetsOnCycle(t *testing.T) {
	w := New(cycle(6), 0.8, rng.New(13))
	for i := 0; i < 2000; i++ {
		if w.PairMeets(0, 3) {
			t.Fatal("walks met on a cycle; impossible")
		}
	}
}

// In-pair graph: u and v share the single in-neighbor z. Then the two
// walks from u and v meet iff both survive their first step, so
// s(u,v) = (√c)² = c.
func TestMeetProbabilitySharedParent(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(2, 0) // I(0) = {2}
	b.AddEdge(2, 1) // I(1) = {2}
	g := b.Build()
	const c = 0.6
	w := New(g, c, rng.New(17))
	got := w.MeetProbability(0, 1, 300000)
	if math.Abs(got-c) > 0.006 {
		t.Fatalf("meet probability %v, want about c=%v", got, c)
	}
}

// I(i) = {p, q} and I(j) = {p, r}, with p, q, r sources: the walks meet
// iff both continue one step (probability c) and both pick p
// (probability 1/4), so s(i, j) = c/4.
func TestMeetProbabilityOneSharedParent(t *testing.T) {
	const i, j, p, q, r = 0, 1, 2, 3, 4
	b := graph.NewBuilder(5)
	b.AddEdge(p, i)
	b.AddEdge(q, i)
	b.AddEdge(p, j)
	b.AddEdge(r, j)
	g := b.Build()
	const c, draws = 0.6, 200000
	w := New(g, c, rng.New(37))
	got := w.MeetProbability(i, j, draws)
	want := c / 4
	sigma := math.Sqrt(want * (1 - want) / draws)
	if math.Abs(got-want) > 5*sigma {
		t.Fatalf("meet probability %v, want %v ± %v (5σ)", got, want, 5*sigma)
	}
}

func TestMeetProbabilityPanicsOnZeroSamples(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(cycle(3), 0.6, rng.New(1)).MeetProbability(0, 1, 0)
}

func TestPairMeetsAfterStartIgnoresStepZero(t *testing.T) {
	// On the cycle, PairMeetsAfterStart(u,u) requires both walks to take a
	// step and land on the same node, which happens with probability c
	// (both survive; the next node is deterministic and equal).
	const c = 0.6
	w := New(cycle(5), c, rng.New(19))
	hits := 0
	const trials = 200000
	for i := 0; i < trials; i++ {
		if w.PairMeetsAfterStart(2, 2) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-c) > 0.006 {
		t.Fatalf("meet-after-start probability %v, want about %v", got, c)
	}
}

func TestReverseWalkTruncation(t *testing.T) {
	w := New(cycle(8), 0.6, rng.New(23))
	for _, tr := range []int{0, 1, 5, 20} {
		path := w.ReverseWalk(0, tr, nil)
		if len(path) != tr+1 {
			t.Fatalf("truncated walk length %d, want %d", len(path), tr+1)
		}
	}
}

func TestReverseWalkStopsWhenDangling(t *testing.T) {
	g := star(3)
	w := New(g, 0.6, rng.New(29))
	path := w.ReverseWalk(0, 10, nil)
	if len(path) != 2 {
		t.Fatalf("reverse walk length %d, want 2 (source + dangling parent)", len(path))
	}
	path = w.ReverseWalk(1, 10, nil)
	if len(path) != 1 {
		t.Fatalf("walk from dangling node length %d, want 1", len(path))
	}
}

func TestFirstMeeting(t *testing.T) {
	cases := []struct {
		a, b []graph.NodeID
		want int
	}{
		{[]graph.NodeID{1, 2, 3}, []graph.NodeID{1, 9, 9}, 0},
		{[]graph.NodeID{1, 2, 3}, []graph.NodeID{4, 2, 9}, 1},
		{[]graph.NodeID{1, 2, 3}, []graph.NodeID{4, 5, 6}, -1},
		{[]graph.NodeID{1, 2}, []graph.NodeID{4, 5, 6, 7}, -1},
		{nil, []graph.NodeID{1}, -1},
		{[]graph.NodeID{5}, []graph.NodeID{5}, 0},
	}
	for i, c := range cases {
		if got := FirstMeeting(c.a, c.b); got != c.want {
			t.Fatalf("case %d: got %d want %d", i, got, c.want)
		}
	}
}

func TestExactHPStepZero(t *testing.T) {
	g := cycle(4)
	hp := ExactHP(g, 0.6, 3)
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			want := 0.0
			if i == k {
				want = 1.0
			}
			if hp[0][i][k] != want {
				t.Fatalf("h0(%d,%d) = %v", i, k, hp[0][i][k])
			}
		}
	}
}

// Observation 1 of the paper: Σ_k h^(ℓ)(i,k) = (√c)^ℓ when no walk ever
// dangles (every node has an in-neighbor).
func TestExactHPMassPerStep(t *testing.T) {
	g := cycle(7)
	const c = 0.6
	maxL := 6
	hp := ExactHP(g, c, maxL)
	for l := 0; l <= maxL; l++ {
		for i := 0; i < 7; i++ {
			sum := 0.0
			for k := 0; k < 7; k++ {
				sum += hp[l][i][k]
			}
			want := math.Pow(math.Sqrt(c), float64(l))
			if math.Abs(sum-want) > 1e-12 {
				t.Fatalf("step %d node %d mass %v, want %v", l, i, sum, want)
			}
		}
	}
}

func TestExactHPDanglingLosesMass(t *testing.T) {
	g := star(3)
	hp := ExactHP(g, 0.6, 2)
	// From node 0 the only step-1 mass is on its in-neighbors 1,2; step 2
	// must be all zero because 1 and 2 are dangling.
	for k := 0; k < 3; k++ {
		if hp[2][0][k] != 0 {
			t.Fatalf("mass escaped past dangling nodes: h2(0,%d)=%v", k, hp[2][0][k])
		}
	}
}

func TestEmpiricalHPMatchesExact(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 1)
	b.AddEdge(4, 2)
	b.AddEdge(0, 3)
	b.AddEdge(2, 4)
	g := b.Build()
	const c = 0.6
	exact := ExactHP(g, c, 4)
	w := New(g, c, rng.New(31))
	for _, u := range []graph.NodeID{0, 1, 2} {
		emp := w.EmpiricalHP(u, 4, 120000)
		for l := 0; l <= 4; l++ {
			for k := 0; k < 5; k++ {
				if math.Abs(emp[l][k]-exact[l][int(u)][k]) > 0.01 {
					t.Fatalf("u=%d l=%d k=%d: empirical %v vs exact %v",
						u, l, k, emp[l][k], exact[l][int(u)][k])
				}
			}
		}
	}
}

func BenchmarkSqrtCWalk(b *testing.B) {
	r := rng.New(1)
	gb := graph.NewBuilder(1000)
	for i := 0; i < 8000; i++ {
		gb.AddEdge(graph.NodeID(r.Intn(1000)), graph.NodeID(r.Intn(1000)))
	}
	g := gb.Build()
	w := New(g, 0.6, rng.New(2))
	buf := make([]graph.NodeID, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = w.SqrtCWalk(graph.NodeID(i%1000), buf[:0])
	}
}

func BenchmarkPairMeets(b *testing.B) {
	r := rng.New(1)
	gb := graph.NewBuilder(1000)
	for i := 0; i < 8000; i++ {
		gb.AddEdge(graph.NodeID(r.Intn(1000)), graph.NodeID(r.Intn(1000)))
	}
	g := gb.Build()
	w := New(g, 0.6, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.PairMeets(graph.NodeID(i%1000), graph.NodeID((i*7)%1000))
	}
}
