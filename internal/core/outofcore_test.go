package core

import (
	"testing"

	"sling/internal/extsort"
	"sling/internal/graph"
)

func TestOutOfCoreMatchesInMemory(t *testing.T) {
	g := randomGraph(60, 360, 103)
	opt := &Options{Eps: 0.05, Seed: 105}
	mem := buildIndex(t, g, opt)
	ooc, err := BuildOutOfCore(g, opt, OutOfCoreOptions{Dir: t.TempDir(), MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(ooc.keys) != len(mem.keys) {
		t.Fatalf("entry counts differ: ooc %d vs mem %d", len(ooc.keys), len(mem.keys))
	}
	for i := range mem.keys {
		if mem.keys[i] != ooc.keys[i] || mem.vals[i] != ooc.vals[i] {
			t.Fatalf("entry %d differs between builds", i)
		}
	}
	for v := 0; v <= 60; v++ {
		if mem.off[v] != ooc.off[v] {
			t.Fatalf("offset %d differs: %d vs %d", v, mem.off[v], ooc.off[v])
		}
	}
	for k := range mem.d {
		if mem.d[k] != ooc.d[k] {
			t.Fatalf("d[%d] differs", k)
		}
	}
}

func TestOutOfCoreTinyBudgetSpills(t *testing.T) {
	g := randomGraph(120, 900, 107)
	opt := &Options{Eps: 0.02, Seed: 109}
	mem := buildIndex(t, g, opt)
	// The minimum budget holds ~3276 records; this index has more entries,
	// forcing the spill path.
	if mem.NumEntries() < 4000 {
		t.Skipf("index too small (%d entries) to force spills", mem.NumEntries())
	}
	ooc, err := BuildOutOfCore(g, opt, OutOfCoreOptions{Dir: t.TempDir(), MemBudget: extsort.MinMemBudget})
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := mem.NewScratchPool(), ooc.NewScratchPool()
	for i := graph.NodeID(0); i < 120; i += 7 {
		for j := graph.NodeID(0); j < 120; j += 11 {
			if a, b := must(p1.SimRank(i, j)), must(p2.SimRank(i, j)); a != b {
				t.Fatalf("spilled build differs at (%d,%d): %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestOutOfCoreRequiresDir(t *testing.T) {
	g := randomGraph(10, 30, 111)
	if _, err := BuildOutOfCore(g, &Options{Eps: 0.1}, OutOfCoreOptions{MemBudget: 1 << 20}); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestOutOfCoreEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	x, err := BuildOutOfCore(g, nil, OutOfCoreOptions{Dir: t.TempDir(), MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if x.NumEntries() != 0 {
		t.Fatal("entries in empty out-of-core index")
	}
}

func TestOutOfCoreWithEnhance(t *testing.T) {
	g := randomGraph(40, 240, 113)
	opt := &Options{Eps: 0.06, Seed: 115, Enhance: true}
	mem := buildIndex(t, g, opt)
	ooc, err := BuildOutOfCore(g, opt, OutOfCoreOptions{Dir: t.TempDir(), MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.marks) != len(ooc.marks) {
		t.Fatalf("mark counts differ: %d vs %d", len(mem.marks), len(ooc.marks))
	}
	for i := range mem.marks {
		if mem.marks[i] != ooc.marks[i] {
			t.Fatalf("mark %d differs", i)
		}
	}
}
