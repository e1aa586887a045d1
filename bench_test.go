// Benchmarks mirroring the paper's evaluation, one testing.B target per
// table/figure series (see README's "Measuring performance"). They run on
// the smaller dataset stand-ins so `go test -bench=.` terminates quickly; the
// full sweeps live in cmd/slingbench.
package sling

import (
	"context"
	"sort"
	"sync"
	"testing"

	"sling/internal/core"
	"sling/internal/extsort"
	"sling/internal/linearize"
	"sling/internal/mc"
	"sling/internal/workload"
)

// benchEps is the "fast" preset of cmd/slingbench.
const benchEps = 0.1

type benchSetup struct {
	g     *Graph
	sling *core.Index
	lin   *linearize.Index
	mc    *mc.Index
	pairs []workload.Pair
	nodes []NodeID
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchSetup{}
)

// setup builds (once per dataset) everything the figure benchmarks need.
func setup(b *testing.B, dataset string) *benchSetup {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchCache[dataset]; ok {
		return s
	}
	spec, ok := workload.ByName(dataset)
	if !ok {
		b.Fatalf("unknown dataset %q", dataset)
	}
	g := spec.Generate(1)
	s := &benchSetup{g: g}
	var err error
	if s.sling, err = core.Build(g, &core.Options{Eps: benchEps, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	if s.lin, err = linearize.Build(g, &linearize.Options{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	// MC at the theory-derived walk count when it fits in 1 GiB,
	// mirroring the paper's 4-smallest-only MC coverage.
	t := mc.DeriveTruncation(benchEps, 0.6)
	nw := mc.DeriveNumWalks(benchEps, 0.01, g.NumNodes())
	if int64(g.NumNodes())*int64(nw)*int64(t+1)*4 <= 1<<30 {
		if s.mc, err = mc.Build(g, &mc.Options{C: 0.6, NumWalks: nw, Truncation: t, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	s.pairs = workload.RandomPairs(g, 1024, 7)
	s.nodes = workload.RandomNodes(g, 256, 11)
	benchCache[dataset] = s
	return s
}

// BenchmarkTable3Datasets measures stand-in generation (Table 3).
func BenchmarkTable3Datasets(b *testing.B) {
	spec, _ := workload.ByName("GrQc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec.Generate(1)
	}
}

// ---- Figure 1: single-pair query time ----

func BenchmarkFig1SinglePairSLING(b *testing.B) {
	for _, ds := range []string{"GrQc", "Wiki-Vote", "Enron"} {
		b.Run(ds, func(b *testing.B) {
			s := setup(b, ds)
			qs := s.sling.NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := s.pairs[i%len(s.pairs)]
				s.sling.SimRank(p.U, p.V, qs)
			}
		})
	}
}

func BenchmarkFig1SinglePairLinearize(b *testing.B) {
	for _, ds := range []string{"GrQc", "Wiki-Vote"} {
		b.Run(ds, func(b *testing.B) {
			s := setup(b, ds)
			ls := s.lin.NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := s.pairs[i%len(s.pairs)]
				s.lin.SimRank(p.U, p.V, ls)
			}
		})
	}
}

func BenchmarkFig1SinglePairMC(b *testing.B) {
	s := setup(b, "GrQc")
	if s.mc == nil {
		b.Skip("MC index exceeds the memory cap")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := s.pairs[i%len(s.pairs)]
		s.mc.SimRank(p.U, p.V)
	}
}

// ---- Figure 2: single-source query time ----

func BenchmarkFig2SingleSourceSLING(b *testing.B) {
	for _, ds := range []string{"GrQc", "Wiki-Vote", "Enron"} {
		b.Run(ds, func(b *testing.B) {
			s := setup(b, ds)
			ss := s.sling.NewSourceScratch()
			out := make([]float64, s.g.NumNodes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.sling.SingleSource(s.nodes[i%len(s.nodes)], ss, out)
			}
		})
	}
}

func BenchmarkFig2SingleSourceSLINGAlg3Loop(b *testing.B) {
	s := setup(b, "GrQc")
	qs := s.sling.NewScratch()
	out := make([]float64, s.g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sling.SingleSourceNaive(s.nodes[i%len(s.nodes)], qs, out)
	}
}

func BenchmarkFig2SingleSourceLinearize(b *testing.B) {
	for _, ds := range []string{"GrQc", "Wiki-Vote"} {
		b.Run(ds, func(b *testing.B) {
			s := setup(b, ds)
			ls := s.lin.NewScratch()
			out := make([]float64, s.g.NumNodes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.lin.SingleSource(s.nodes[i%len(s.nodes)], ls, out)
			}
		})
	}
}

func BenchmarkFig2SingleSourceMC(b *testing.B) {
	s := setup(b, "GrQc")
	if s.mc == nil {
		b.Skip("MC index exceeds the memory cap")
	}
	out := make([]float64, s.g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.mc.SingleSource(s.nodes[i%len(s.nodes)], out)
	}
}

// ---- Figure 3: preprocessing time ----

func BenchmarkFig3PreprocessSLING(b *testing.B) {
	s := setup(b, "GrQc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(s.g, &core.Options{Eps: benchEps, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3PreprocessLinearize(b *testing.B) {
	s := setup(b, "GrQc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linearize.Build(s.g, &linearize.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3PreprocessMC(b *testing.B) {
	s := setup(b, "GrQc")
	if s.mc == nil {
		b.Skip("MC index exceeds the memory cap")
	}
	nw, t := s.mc.NumWalks(), s.mc.Truncation()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Build(s.g, &mc.Options{NumWalks: nw, Truncation: t, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 4 is a size table, not a timing; report it as metrics. ----

func BenchmarkFig4SpaceReport(b *testing.B) {
	s := setup(b, "GrQc")
	b.ReportMetric(float64(s.sling.Bytes()+s.g.Bytes()), "sling-bytes")
	b.ReportMetric(float64(s.lin.Bytes()+s.g.Bytes()), "linearize-bytes")
	if s.mc != nil {
		b.ReportMetric(float64(s.mc.Bytes()+s.g.Bytes()), "mc-bytes")
	}
	for i := 0; i < b.N; i++ {
		_ = s.sling.Bytes()
	}
}

// ---- Figure 9: parallel construction ----

func BenchmarkFig9ParallelBuild(b *testing.B) {
	s := setup(b, "Enron")
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(s.g, &core.Options{Eps: benchEps, Seed: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 10: out-of-core construction ----

func BenchmarkFig10OutOfCore(b *testing.B) {
	s := setup(b, "GrQc")
	for _, cfg := range []struct {
		name string
		mem  int64
	}{
		{"buffer-64KiB", extsort.MinMemBudget},
		{"buffer-4MiB", 4 << 20},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				if _, err := core.BuildOutOfCore(s.g, &core.Options{Eps: benchEps, Seed: 1},
					core.OutOfCoreOptions{Dir: dir, MemBudget: cfg.mem}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations (Section 5 design choices) ----

func BenchmarkAblationDEstimatorBasic(b *testing.B) {
	s := setup(b, "GrQc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(s.g, &core.Options{Eps: benchEps, Seed: 1, BasicEstimator: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDEstimatorAdaptive(b *testing.B) {
	s := setup(b, "GrQc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(s.g, &core.Options{Eps: benchEps, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSpaceReduction(b *testing.B) {
	s := setup(b, "GrQc")
	full, err := core.Build(s.g, &core.Options{Eps: benchEps, Seed: 1, DisableSpaceReduction: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		b.ReportMetric(float64(full.Bytes()), "index-bytes")
		qs := full.NewScratch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := s.pairs[i%len(s.pairs)]
			full.SimRank(p.U, p.V, qs)
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportMetric(float64(s.sling.Bytes()), "index-bytes")
		qs := s.sling.NewScratch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := s.pairs[i%len(s.pairs)]
			s.sling.SimRank(p.U, p.V, qs)
		}
	})
}

func BenchmarkAblationEnhanceQuery(b *testing.B) {
	s := setup(b, "GrQc")
	enh, err := core.Build(s.g, &core.Options{Eps: benchEps, Seed: 1, Enhance: true})
	if err != nil {
		b.Fatal(err)
	}
	qs := enh.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := s.pairs[i%len(s.pairs)]
		enh.SimRank(p.U, p.V, qs)
	}
}

// ---- Public facade overhead ----

func BenchmarkFacadeSimRank(b *testing.B) {
	s := setup(b, "GrQc")
	ix, err := Build(s.g, WithEps(benchEps), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := s.pairs[i%len(s.pairs)]
		if _, err := ix.SimRank(ctx, p.U, p.V); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Serving engine: top-k selection and batch single-source ----

// benchSortTop is the pre-heap top-k baseline (materialize all positive
// candidates, full sort) kept for comparison.
func benchSortTop(scores []float64, k int, skip NodeID) []Scored {
	out := make([]Scored, 0, len(scores))
	for v, sc := range scores {
		if NodeID(v) == skip || sc <= 0 {
			continue
		}
		out = append(out, Scored{Node: NodeID(v), Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node < out[j].Node
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// BenchmarkTopK compares size-k heap selection against the full-sort
// baseline it replaced, over one precomputed score vector so only the
// selection step is measured (k=10 ≪ n).
func BenchmarkTopK(b *testing.B) {
	s := setup(b, "Enron")
	ss := s.sling.NewSourceScratch()
	scores := s.sling.SingleSource(s.nodes[0], ss, nil)
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.SelectTop(scores, 10, s.nodes[0])
		}
	})
	b.Run("fullsort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSortTop(scores, 10, s.nodes[0])
		}
	})
}

// BenchmarkTopKEndToEnd is the facade path a /topk request takes:
// pooled single-source evaluation plus heap selection.
func BenchmarkTopKEndToEnd(b *testing.B) {
	s := setup(b, "GrQc")
	ix, err := Build(s.g, WithEps(benchEps), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.TopK(ctx, s.nodes[i%len(s.nodes)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleSourceBatch measures batch fan-out over worker counts —
// the engine behind POST /batch and SingleSourceBatch.
func BenchmarkSingleSourceBatch(b *testing.B) {
	s := setup(b, "GrQc")
	us := s.nodes[:64]
	p := s.sling.NewScratchPool()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4", 8: "workers-8"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.SingleSourceBatch(nil, us, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
