package workload

import (
	"testing"

	"sling/internal/graph"
)

func TestFamiliesDeterministicAndValid(t *testing.T) {
	if len(Families()) < 6 {
		t.Fatalf("conformance needs >= 6 families, registry has %d", len(Families()))
	}
	for _, f := range Families() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			g1 := f.Gen(24, 7)
			g2 := f.Gen(24, 7)
			if err := g1.Validate(); err != nil {
				t.Fatalf("invalid graph: %v", err)
			}
			if g1.NumNodes() == 0 || g1.NumEdges() == 0 {
				t.Fatalf("empty graph: %v", g1)
			}
			if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
				t.Fatalf("non-deterministic sizes: %v vs %v", g1, g2)
			}
			same := true
			g1.Edges(func(from, to graph.NodeID) bool {
				if !g2.HasEdge(from, to) {
					same = false
				}
				return same
			})
			if !same {
				t.Fatal("same (n, seed) produced different edge sets")
			}
			// A different seed must change randomized families (structured
			// ones are allowed to ignore it).
			g3 := f.Gen(24, 8)
			if err := g3.Validate(); err != nil {
				t.Fatalf("invalid graph at seed 8: %v", err)
			}
		})
	}
}

func TestFamilyStructuralProperties(t *testing.T) {
	byName := func(name string) *graph.Graph {
		f, ok := FamilyByName(name)
		if !ok {
			t.Fatalf("missing family %q", name)
		}
		return f.Gen(25, 3)
	}

	star := byName("star")
	if st := star.Stats(); st.MaxInDegree != star.NumNodes()-1 {
		t.Errorf("star hub in-degree %d, want %d", st.MaxInDegree, star.NumNodes()-1)
	}

	grid := byName("grid")
	if st := grid.Stats(); st.MaxInDegree > 4 {
		t.Errorf("grid max in-degree %d, want <= 4", st.MaxInDegree)
	}

	bip := byName("bipartite")
	a := bip.NumNodes() / 2
	for v := graph.NodeID(0); int(v) < a; v++ {
		if bip.InDegree(v) != 0 {
			t.Errorf("bipartite A-side node %d has in-degree %d, want 0", v, bip.InDegree(v))
		}
	}

	dag := byName("dag")
	dag.Edges(func(from, to graph.NodeID) bool {
		if from >= to {
			t.Errorf("dag edge %d->%d violates topological order", from, to)
			return false
		}
		return true
	})

	disc := byName("disconnected")
	if st := disc.Stats(); st.Sources == 0 {
		t.Error("disconnected family has no isolated/source nodes")
	}

	deg := byName("degenerate")
	loops := 0
	deg.Edges(func(from, to graph.NodeID) bool {
		if from == to {
			loops++
		}
		return true
	})
	if loops == 0 {
		t.Error("degenerate family has no self-loops")
	}

	pl := byName("powerlaw")
	er := byName("er")
	if degreeSkew(pl) <= degreeSkew(er) {
		t.Errorf("powerlaw skew %.2f not above er skew %.2f",
			degreeSkew(pl), degreeSkew(er))
	}
}

func TestParseFamilies(t *testing.T) {
	fs, err := ParseFamilies([]string{"er", "grid"})
	if err != nil || len(fs) != 2 || fs[0].Name != "er" || fs[1].Name != "grid" {
		t.Fatalf("ParseFamilies: %v %v", fs, err)
	}
	if _, err := ParseFamilies([]string{"nope"}); err == nil {
		t.Fatal("unknown family accepted")
	}
}
