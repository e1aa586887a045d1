package workload

import (
	"math"
	"testing"
)

func TestRegistryHasTwelveDatasets(t *testing.T) {
	ds := Datasets()
	if len(ds) != 12 {
		t.Fatalf("registry has %d datasets, want 12 (Table 3)", len(ds))
	}
	names := map[string]bool{}
	for _, s := range ds {
		if names[s.Name] {
			t.Fatalf("duplicate dataset %q", s.Name)
		}
		names[s.Name] = true
	}
	if ds[0].Name != "GrQc" || ds[11].Name != "Indochina" {
		t.Fatal("registry not in Table 3 order")
	}
}

func TestSmallDatasets(t *testing.T) {
	small := SmallDatasets()
	if len(small) != 4 {
		t.Fatalf("got %d small datasets", len(small))
	}
	want := []string{"GrQc", "AS", "Wiki-Vote", "HepTh"}
	for i, s := range small {
		if s.Name != want[i] {
			t.Fatalf("small[%d] = %q, want %q", i, s.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("Google")
	if !ok || s.Name != "Google" {
		t.Fatal("ByName(Google) failed")
	}
	if _, ok := ByName("NotADataset"); ok {
		t.Fatal("ByName accepted a bogus name")
	}
}

// Stand-ins must preserve each dataset's average degree within 25%.
func TestAverageDegreePreserved(t *testing.T) {
	for _, s := range Datasets() {
		paperRatio := float64(s.PaperEdges) / float64(s.PaperNodes)
		standRatio := float64(s.Edges) / float64(s.Nodes)
		if math.Abs(standRatio-paperRatio)/paperRatio > 0.25 {
			t.Fatalf("%s: stand-in m/n %.2f vs paper %.2f", s.Name, standRatio, paperRatio)
		}
	}
}

func TestSizeProgressionPreserved(t *testing.T) {
	ds := Datasets()
	for i := 1; i < len(ds); i++ {
		if ds[i].PaperNodes < ds[i-1].PaperNodes {
			t.Fatalf("paper sizes out of order at %s", ds[i].Name)
		}
		if ds[i].Nodes < ds[i-1].Nodes {
			t.Fatalf("stand-in sizes out of order at %s", ds[i].Name)
		}
	}
}

func TestGenerateSmallDatasets(t *testing.T) {
	for _, s := range SmallDatasets() {
		g := s.Generate(1)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if g.NumNodes() != s.Nodes {
			t.Fatalf("%s: n=%d, want %d", s.Name, g.NumNodes(), s.Nodes)
		}
		// Dedup can eat a few edges; demand at least 85% of target.
		want := s.Edges
		if !s.Directed {
			want *= 2
		}
		if g.NumEdges() < want*85/100 {
			t.Fatalf("%s: m=%d, want at least 85%% of %d", s.Name, g.NumEdges(), want)
		}
		if !s.Directed {
			// Every edge must have its reverse.
			bad := 0
			g.Edges(func(from, to int32) bool {
				if !g.HasEdge(to, from) {
					bad++
				}
				return true
			})
			if bad > 0 {
				t.Fatalf("%s: %d asymmetric edges in undirected dataset", s.Name, bad)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := SmallDatasets()[0]
	g1, g2 := s.Generate(1), s.Generate(1)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("generation not deterministic")
	}
	same := true
	g1.Edges(func(from, to int32) bool {
		if !g2.HasEdge(from, to) {
			same = false
			return false
		}
		return true
	})
	if !same {
		t.Fatal("edge sets differ across generations")
	}
}

func TestScale(t *testing.T) {
	s := SmallDatasets()[0]
	half := s.Generate(0.5)
	if got, want := half.NumNodes(), int(math.Round(float64(s.Nodes)*0.5)); got != want {
		t.Fatalf("scaled n=%d, want %d", got, want)
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SmallDatasets()[0].Generate(0)
}

// Preferential attachment must be visibly heavier-tailed than uniform.
func TestGeneratorFamiliesDiffer(t *testing.T) {
	pa := Spec{Name: "pa", Directed: true, Kind: PrefAttach, Nodes: 3000, Edges: 15000, Seed: 1}
	un := Spec{Name: "un", Directed: true, Kind: Uniform, Nodes: 3000, Edges: 15000, Seed: 1}
	skewPA := degreeSkew(pa.Generate(1))
	skewUn := degreeSkew(un.Generate(1))
	if skewPA <= skewUn {
		t.Fatalf("pref-attach skew %.2f not above uniform %.2f", skewPA, skewUn)
	}
}

func TestNoSelfLoops(t *testing.T) {
	for _, s := range SmallDatasets() {
		g := s.Generate(0.5)
		g.Edges(func(from, to int32) bool {
			if from == to {
				t.Fatalf("%s: self loop at %d", s.Name, from)
			}
			return true
		})
	}
}

func TestRandomPairs(t *testing.T) {
	g := SmallDatasets()[0].Generate(0.5)
	pairs := RandomPairs(g, 100, 7)
	if len(pairs) != 100 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if p.U == p.V {
			t.Fatal("identical pair generated")
		}
		if int(p.U) >= g.NumNodes() || int(p.V) >= g.NumNodes() {
			t.Fatal("pair out of range")
		}
	}
	again := RandomPairs(g, 100, 7)
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("pair workload not deterministic")
		}
	}
}

func TestRandomNodes(t *testing.T) {
	g := SmallDatasets()[0].Generate(0.5)
	nodes := RandomNodes(g, 50, 9)
	if len(nodes) != 50 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	for _, v := range nodes {
		if int(v) >= g.NumNodes() || v < 0 {
			t.Fatal("node out of range")
		}
	}
}

func TestKindString(t *testing.T) {
	if PrefAttach.String() != "pref-attach" || Uniform.String() != "uniform" {
		t.Fatal("Kind.String broken")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}
