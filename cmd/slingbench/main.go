// Command slingbench regenerates the SLING paper's evaluation (Section 7
// and Appendix C): every figure has an -exp target that prints the same
// rows/series the paper reports, measured on the synthetic dataset
// stand-ins of internal/workload.
//
// Usage:
//
//	slingbench -exp fig1 [-datasets GrQc,AS] [-preset fast|paper] ...
//
// Experiments:
//
//	table3   dataset statistics (Table 3)
//	fig1     average single-pair query time per method
//	fig2     average single-source query time per method
//	fig3     preprocessing time per method
//	fig4     index space per method
//	perf     fig1+fig2+fig3+fig4 in one pass (shared builds)
//	fig5     max all-pairs error over repeated index builds (4 smallest)
//	fig6     average error by SimRank score group S1/S2/S3
//	fig7     top-k pair precision
//	acc      fig5+fig6+fig7 in one pass (shared ground truth)
//	fig9     SLING preprocessing time vs worker count
//	fig10    out-of-core preprocessing time vs memory buffer
//	ablation Section 5 design-choice ablations
//	diskqps  disk-resident (Section 5.4) single-pair QPS vs goroutine
//	         count, positioned reads vs mmap, with allocs/op; writes
//	         BENCH_diskqps.json (not a paper figure)
//	sharded  sharded-router QPS vs shard count: one dataset split into
//	         in-process shards behind the internal/shard router, pair /
//	         single-source / top-k latency at each shard count; writes
//	         BENCH_sharded.json (not a paper figure)
//	all      everything above, in this order
//
// Served throughput and latency are perfbench's to measure: its
// workloads drive the real HTTP handlers (README, "Measuring
// performance"). diskqps and sharded stay here until perfbench covers
// ReadAt vs mmap and a shard-count sweep.
//
// The default "fast" preset uses ε=0.1 so the full sweep finishes on a
// laptop; -preset paper switches to the paper's ε=0.025 (Section 7.1).
// Accuracy experiments always run SLING at the paper's ε. Absolute times
// differ from the paper's C++/16-core testbed; the comparison shapes are
// what carries over.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"sling/internal/core"
	"sling/internal/eval"
	"sling/internal/graph"
	"sling/internal/humanize"
	"sling/internal/linearize"
	"sling/internal/mc"
	"sling/internal/power"
	"sling/internal/workload"
)

// experiments lists every -exp target in the order -exp all runs them.
// A target answers to any of its names.
var experiments = []struct {
	names []string
	run   func() error
}{
	{[]string{"table3"}, runTable3},
	{[]string{"fig1", "fig2", "fig3", "fig4", "perf"}, runPerf},
	{[]string{"fig5", "fig6", "fig7", "acc"}, runAccuracy},
	{[]string{"fig9"}, runThreads},
	{[]string{"fig10"}, runBuffers},
	{[]string{"ablation"}, runAblation},
	{[]string{"diskqps"}, runDiskQPS},
	{[]string{"sharded"}, runSharded},
}

// experimentNames is the -exp help list: every name in table order,
// then "all".
func experimentNames() string {
	var names []string
	for _, x := range experiments {
		names = append(names, x.names...)
	}
	return strings.Join(append(names, "all"), "|")
}

var (
	expFlag      = flag.String("exp", "perf", "comma-separated experiments: "+experimentNames())
	datasetsFlag = flag.String("datasets", "", "comma-separated dataset names (default: per-experiment)")
	scaleFlag    = flag.Float64("scale", 1, "dataset scale factor")
	presetFlag   = flag.String("preset", "fast", "parameter preset: fast (eps=0.1) or paper (eps=0.025)")
	pairsFlag    = flag.Int("pairs", 1000, "single-pair queries per dataset (time-boxed)")
	sourcesFlag  = flag.Int("sources", 100, "single-source queries per dataset (time-boxed)")
	runsFlag     = flag.Int("runs", 3, "index rebuilds for fig5 (paper: 10)")
	budgetFlag   = flag.Duration("budget", 15*time.Second, "per-method query timing budget")
	seedFlag     = flag.Uint64("seed", 1, "base random seed")
	threadsFlag  = flag.String("threads", "1,2,4,8,16", "worker counts for fig9")
	buffersFlag  = flag.String("buffers", "1,4,16,64,all", "memory buffers in MiB for fig10 ('all' = in-memory)")
	kvalsFlag    = flag.String("k", "400,800,1200,1600,2000", "k values for fig7")
	mcCapFlag    = flag.Int64("mccap", 1<<30, "max MC index bytes before the dataset is skipped (paper: 64GB)")
	diskOpsFlag  = flag.Int("diskops", 20000, "diskqps single-pair queries per cell")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slingbench:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, e := range strings.Split(*expFlag, ",") {
		name := strings.TrimSpace(e)
		ran := false
		for _, x := range experiments {
			if name == "all" || slices.Contains(x.names, name) {
				if err := x.run(); err != nil {
					return err
				}
				ran = true
			}
		}
		if !ran {
			return fmt.Errorf("unknown experiment %q", e)
		}
	}
	return nil
}

// selectDatasets resolves -datasets against a default list.
func selectDatasets(def []workload.Spec) ([]workload.Spec, error) {
	if *datasetsFlag == "" {
		return def, nil
	}
	var out []workload.Spec
	for _, name := range strings.Split(*datasetsFlag, ",") {
		s, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// params returns per-method options under the active preset.
func params(preset string) (slingOpt core.Options, linOpt linearize.Options, mcEps float64, err error) {
	switch preset {
	case "fast":
		slingOpt = core.Options{Eps: 0.1, Seed: *seedFlag}
		mcEps = 0.1
	case "paper":
		slingOpt = core.Options{Eps: 0.025, Seed: *seedFlag}
		mcEps = 0.025
	default:
		err = fmt.Errorf("unknown preset %q", preset)
		return
	}
	linOpt = linearize.Options{T: 11, R: 100, L: 3, Seed: *seedFlag} // paper Section 7.1
	return
}

// mcOptions derives MC options whose index fits the -mccap budget, or
// reports that the dataset must be skipped (the paper skips MC beyond its
// four smallest graphs for the same reason).
func mcOptions(n int, eps float64) (mc.Options, bool) {
	t := mc.DeriveTruncation(eps, 0.6)
	nw := mc.DeriveNumWalks(eps, 0.01, n)
	if int64(n)*int64(nw)*int64(t+1)*4 > *mcCapFlag {
		return mc.Options{}, false
	}
	return mc.Options{C: 0.6, NumWalks: nw, Truncation: t, Seed: *seedFlag}, true
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1000)
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// timeBox runs up to count calls of fn within the budget and returns the
// average latency and how many calls ran.
func timeBox(count int, budget time.Duration, fn func(i int)) (time.Duration, int) {
	if count <= 0 {
		return 0, 0
	}
	start := time.Now()
	ran := 0
	for ; ran < count; ran++ {
		fn(ran)
		if time.Since(start) > budget {
			ran++
			break
		}
	}
	return time.Since(start) / time.Duration(ran), ran
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// ---------------------------------------------------------------- table3

func runTable3() error {
	fmt.Println("== Table 3: datasets (synthetic stand-ins; paper sizes in parentheses) ==")
	w := newTab()
	fmt.Fprintln(w, "dataset\ttype\tn\tm\tpaper n\tpaper m\tgenerator")
	for _, s := range workload.Datasets() {
		g := s.Generate(*scaleFlag)
		typ := "directed"
		if !s.Directed {
			typ = "undirected"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
			s.Name, typ, g.NumNodes(), g.NumEdges(), s.PaperNodes, s.PaperEdges, s.Kind)
	}
	w.Flush()
	fmt.Println()
	return nil
}

// ------------------------------------------------------------- fig1-fig4

type perfRow struct {
	name string

	slingBuild, linBuild, mcBuild time.Duration
	slingBytes, linBytes, mcBytes int64
	slingPair, linPair, mcPair    time.Duration
	slingSS, slingSSNaive         time.Duration
	linSS, mcSS                   time.Duration
	naiveRan                      bool
}

func runPerf() error {
	specs, err := selectDatasets(workload.Datasets())
	if err != nil {
		return err
	}
	slingOpt, linOpt, mcEps, err := params(*presetFlag)
	if err != nil {
		return err
	}
	fmt.Printf("== Figures 1-4: query/preprocessing cost per method (preset %s, scale %g) ==\n", *presetFlag, *scaleFlag)
	var rows []perfRow
	for di, spec := range specs {
		g := spec.Generate(*scaleFlag)
		row := perfRow{name: spec.Name}
		fmt.Fprintf(os.Stderr, "[%d/%d] %s: n=%d m=%d building...\n", di+1, len(specs), spec.Name, g.NumNodes(), g.NumEdges())

		start := time.Now()
		slingIx, err := core.Build(g, &slingOpt)
		if err != nil {
			return fmt.Errorf("%s: sling build: %w", spec.Name, err)
		}
		row.slingBuild = time.Since(start)
		row.slingBytes = slingIx.Bytes() + g.Bytes()

		start = time.Now()
		linIx, err := linearize.Build(g, &linOpt)
		if err != nil {
			return fmt.Errorf("%s: linearize build: %w", spec.Name, err)
		}
		row.linBuild = time.Since(start)
		row.linBytes = linIx.Bytes() + g.Bytes()

		var mcIx *mc.Index
		if mcOpt, ok := mcOptions(g.NumNodes(), mcEps); ok {
			start = time.Now()
			mcIx, err = mc.Build(g, &mcOpt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "  mc skipped: %v\n", err)
			} else {
				row.mcBuild = time.Since(start)
				row.mcBytes = mcIx.Bytes() + g.Bytes()
			}
		} else {
			fmt.Fprintf(os.Stderr, "  mc skipped: index would exceed %s (as in the paper)\n", humanize.Bytes(*mcCapFlag))
		}

		// Figure 1: single-pair latency.
		pairs := workload.RandomPairs(g, *pairsFlag, *seedFlag+7)
		qs := slingIx.NewScratch()
		row.slingPair, _ = timeBox(len(pairs), *budgetFlag, func(i int) {
			slingIx.SimRank(pairs[i].U, pairs[i].V, qs)
		})
		ls := linIx.NewScratch()
		row.linPair, _ = timeBox(len(pairs), *budgetFlag, func(i int) {
			linIx.SimRank(pairs[i].U, pairs[i].V, ls)
		})
		if mcIx != nil {
			row.mcPair, _ = timeBox(len(pairs), *budgetFlag, func(i int) {
				mcIx.SimRank(pairs[i].U, pairs[i].V)
			})
		}

		// Figure 2: single-source latency.
		sources := workload.RandomNodes(g, *sourcesFlag, *seedFlag+11)
		out := make([]float64, g.NumNodes())
		ss := slingIx.NewSourceScratch()
		row.slingSS, _ = timeBox(len(sources), *budgetFlag, func(i int) {
			slingIx.SingleSource(sources[i], ss, out)
		})
		if di < 4 { // the paper runs the naive Alg-3 loop only on the 4 smallest
			row.naiveRan = true
			row.slingSSNaive, _ = timeBox(len(sources), *budgetFlag, func(i int) {
				slingIx.SingleSourceNaive(sources[i], qs, out)
			})
		}
		row.linSS, _ = timeBox(len(sources), *budgetFlag, func(i int) {
			linIx.SingleSource(sources[i], ls, out)
		})
		if mcIx != nil {
			row.mcSS, _ = timeBox(len(sources), *budgetFlag, func(i int) {
				mcIx.SingleSource(sources[i], out)
			})
		}
		rows = append(rows, row)
	}

	fmt.Println("\n-- Figure 1: average single-pair query time --")
	w := newTab()
	fmt.Fprintln(w, "dataset\tSLING\tLinearize\tMC\tspeedup vs Linearize")
	for _, r := range rows {
		speed := "-"
		if r.slingPair > 0 && r.linPair > 0 {
			speed = fmt.Sprintf("%.0fx", float64(r.linPair)/float64(r.slingPair))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", r.name, fmtDur(r.slingPair), fmtDur(r.linPair), fmtDur(r.mcPair), speed)
	}
	w.Flush()

	fmt.Println("\n-- Figure 2: average single-source query time --")
	w = newTab()
	fmt.Fprintln(w, "dataset\tSLING(Alg6)\tSLING(Alg3 loop)\tLinearize\tMC\tspeedup vs Linearize")
	for _, r := range rows {
		naive := "-"
		if r.naiveRan {
			naive = fmtDur(r.slingSSNaive)
		}
		speed := "-"
		if r.slingSS > 0 && r.linSS > 0 {
			speed = fmt.Sprintf("%.0fx", float64(r.linSS)/float64(r.slingSS))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n", r.name, fmtDur(r.slingSS), naive, fmtDur(r.linSS), fmtDur(r.mcSS), speed)
	}
	w.Flush()

	fmt.Println("\n-- Figure 3: preprocessing time --")
	w = newTab()
	fmt.Fprintln(w, "dataset\tSLING\tLinearize\tMC")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", r.name, fmtDur(r.slingBuild), fmtDur(r.linBuild), fmtDur(r.mcBuild))
	}
	w.Flush()

	fmt.Println("\n-- Figure 4: space consumption (index + graph) --")
	w = newTab()
	fmt.Fprintln(w, "dataset\tSLING\tLinearize\tMC")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", r.name, humanize.Bytes(r.slingBytes), humanize.Bytes(r.linBytes), humanize.Bytes(r.mcBytes))
	}
	w.Flush()
	fmt.Println()
	return nil
}

// ------------------------------------------------------------- fig5-fig7

func runAccuracy() error {
	specs, err := selectDatasets(workload.SmallDatasets())
	if err != nil {
		return err
	}
	_, linOpt, _, err := params(*presetFlag)
	if err != nil {
		return err
	}
	// Accuracy experiments follow the paper: SLING at ε=0.025; MC's walk
	// count is capped by memory rather than theory (the theoretical count
	// needs tens of GB even on the smallest graph).
	slingOpt := core.Options{Eps: 0.025}
	kvals, err := parseInts(*kvalsFlag)
	if err != nil {
		return err
	}
	fmt.Printf("== Figures 5-7: accuracy vs power-method ground truth (%d run(s), scale %g) ==\n", *runsFlag, *scaleFlag)

	type accRow struct {
		name                       string
		slingMax, linMax, mcMax    []float64 // per run
		slingGrp, linGrp, mcGrp    eval.Grouped
		slingPrec, linPrec, mcPrec map[int]float64
	}
	var rows []accRow
	for _, spec := range specs {
		g := spec.Generate(*scaleFlag)
		fmt.Fprintf(os.Stderr, "%s: computing ground truth (n=%d)...\n", spec.Name, g.NumNodes())
		truth, err := eval.GroundTruth(g, 0.6)
		if err != nil {
			return fmt.Errorf("%s: ground truth: %w", spec.Name, err)
		}
		row := accRow{name: spec.Name,
			slingPrec: map[int]float64{}, linPrec: map[int]float64{}, mcPrec: map[int]float64{}}
		// MC walk count under a 256 MiB budget.
		mcT := mc.DeriveTruncation(0.025, 0.6)
		mcNW := int((256 << 20) / (int64(g.NumNodes()) * int64(mcT+1) * 4))
		if mcNW > 20000 {
			mcNW = 20000
		}
		for run := 0; run < *runsFlag; run++ {
			seed := *seedFlag + uint64(run)*1000
			so := slingOpt
			so.Seed = seed
			slingIx, err := core.Build(g, &so)
			if err != nil {
				return err
			}
			ss := slingIx.NewSourceScratch()
			slingAll := eval.Collect(g.NumNodes(), func(u graph.NodeID, out []float64) []float64 {
				return slingIx.SingleSource(u, ss, out)
			})
			lo := linOpt
			lo.Seed = seed
			linIx, err := linearize.Build(g, &lo)
			if err != nil {
				return err
			}
			ls := linIx.NewScratch()
			linAll := eval.Collect(g.NumNodes(), func(u graph.NodeID, out []float64) []float64 {
				return linIx.SingleSource(u, ls, out)
			})
			mcIx, err := mc.Build(g, &mc.Options{C: 0.6, NumWalks: mcNW, Truncation: mcT, Seed: seed})
			if err != nil {
				return err
			}
			mcAll := mcIx.AllPairs()

			for _, pair := range []struct {
				est *power.Scores
				dst *[]float64
			}{{slingAll, &row.slingMax}, {linAll, &row.linMax}, {mcAll, &row.mcMax}} {
				m, err := eval.MaxError(pair.est, truth)
				if err != nil {
					return err
				}
				*pair.dst = append(*pair.dst, m)
			}
			if run == 0 {
				if row.slingGrp, err = eval.GroupErrors(slingAll, truth); err != nil {
					return err
				}
				if row.linGrp, err = eval.GroupErrors(linAll, truth); err != nil {
					return err
				}
				if row.mcGrp, err = eval.GroupErrors(mcAll, truth); err != nil {
					return err
				}
				for _, k := range kvals {
					if row.slingPrec[k], err = eval.TopKPrecision(slingAll, truth, k); err != nil {
						return err
					}
					if row.linPrec[k], err = eval.TopKPrecision(linAll, truth, k); err != nil {
						return err
					}
					if row.mcPrec[k], err = eval.TopKPrecision(mcAll, truth, k); err != nil {
						return err
					}
				}
			}
		}
		rows = append(rows, row)
	}

	fmt.Println("\n-- Figure 5: maximum all-pairs error per run (SLING guarantee eps=0.025) --")
	w := newTab()
	fmt.Fprintln(w, "dataset\trun\tSLING\tLinearize\tMC")
	for _, r := range rows {
		for run := range r.slingMax {
			fmt.Fprintf(w, "%s\t%d\t%.5f\t%.5f\t%.5f\n", r.name, run+1, r.slingMax[run], r.linMax[run], r.mcMax[run])
		}
	}
	w.Flush()

	fmt.Println("\n-- Figure 6: average error per SimRank score group --")
	w = newTab()
	fmt.Fprintln(w, "dataset\tgroup\tSLING\tLinearize\tMC")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\tS1 [0.1,1]\t%.2e\t%.2e\t%.2e\n", r.name, r.slingGrp.S1, r.linGrp.S1, r.mcGrp.S1)
		fmt.Fprintf(w, "%s\tS2 [0.01,0.1)\t%.2e\t%.2e\t%.2e\n", r.name, r.slingGrp.S2, r.linGrp.S2, r.mcGrp.S2)
		fmt.Fprintf(w, "%s\tS3 (<0.01)\t%.2e\t%.2e\t%.2e\n", r.name, r.slingGrp.S3, r.linGrp.S3, r.mcGrp.S3)
	}
	w.Flush()

	fmt.Println("\n-- Figure 7: top-k pair precision --")
	w = newTab()
	fmt.Fprintln(w, "dataset\tk\tSLING\tLinearize\tMC")
	for _, r := range rows {
		ks := make([]int, 0, len(r.slingPrec))
		for k := range r.slingPrec {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		for _, k := range ks {
			fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\t%.4f\n", r.name, k, r.slingPrec[k], r.linPrec[k], r.mcPrec[k])
		}
	}
	w.Flush()
	fmt.Println()
	return nil
}

// ----------------------------------------------------------------- fig9

func runThreads() error {
	def := []workload.Spec{}
	for _, name := range []string{"Google", "In-2004"} {
		s, _ := workload.ByName(name)
		def = append(def, s)
	}
	specs, err := selectDatasets(def)
	if err != nil {
		return err
	}
	slingOpt, _, _, err := params(*presetFlag)
	if err != nil {
		return err
	}
	threads, err := parseInts(*threadsFlag)
	if err != nil {
		return err
	}
	fmt.Printf("== Figure 9: SLING preprocessing time vs worker count (preset %s) ==\n", *presetFlag)
	fmt.Println("   note: speedup requires physical cores")
	w := newTab()
	fmt.Fprintln(w, "dataset\tworkers\tpreprocessing")
	for _, spec := range specs {
		g := spec.Generate(*scaleFlag)
		for _, th := range threads {
			o := slingOpt
			o.Workers = th
			start := time.Now()
			if _, err := core.Build(g, &o); err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%d\t%s\n", spec.Name, th, fmtDur(time.Since(start)))
			w.Flush()
		}
	}
	fmt.Println()
	return nil
}

// ---------------------------------------------------------------- fig10

func runBuffers() error {
	def := []workload.Spec{}
	for _, name := range []string{"Google", "In-2004"} {
		s, _ := workload.ByName(name)
		def = append(def, s)
	}
	specs, err := selectDatasets(def)
	if err != nil {
		return err
	}
	slingOpt, _, _, err := params(*presetFlag)
	if err != nil {
		return err
	}
	fmt.Printf("== Figure 10: out-of-core preprocessing time vs memory buffer (preset %s) ==\n", *presetFlag)
	w := newTab()
	fmt.Fprintln(w, "dataset\tbuffer\tpreprocessing\tspill runs")
	for _, spec := range specs {
		g := spec.Generate(*scaleFlag)
		for _, b := range strings.Split(*buffersFlag, ",") {
			b = strings.TrimSpace(b)
			start := time.Now()
			if b == "all" {
				if _, err := core.Build(g, &slingOpt); err != nil {
					return err
				}
				fmt.Fprintf(w, "%s\tall (in-memory)\t%s\t0\n", spec.Name, fmtDur(time.Since(start)))
			} else {
				mib, err := strconv.ParseFloat(b, 64)
				if err != nil {
					return fmt.Errorf("bad buffer size %q", b)
				}
				dir, err := os.MkdirTemp("", "slingbench-ooc")
				if err != nil {
					return err
				}
				budget := int64(mib * (1 << 20))
				if _, err := core.BuildOutOfCore(g, &slingOpt, core.OutOfCoreOptions{Dir: dir, MemBudget: budget}); err != nil {
					os.RemoveAll(dir)
					return err
				}
				fmt.Fprintf(w, "%s\t%sMiB\t%s\t-\n", spec.Name, b, fmtDur(time.Since(start)))
				os.RemoveAll(dir)
			}
			w.Flush()
		}
	}
	fmt.Println()
	return nil
}

// -------------------------------------------------------------- ablation

func runAblation() error {
	specs, err := selectDatasets(workload.SmallDatasets()[:2])
	if err != nil {
		return err
	}
	fmt.Println("== Ablations: Section 5 design choices ==")
	for _, spec := range specs {
		g := spec.Generate(*scaleFlag)
		truth, err := eval.GroundTruth(g, 0.6)
		if err != nil {
			return err
		}
		fmt.Printf("\n-- %s (n=%d, m=%d) --\n", spec.Name, g.NumNodes(), g.NumEdges())

		// 5.1: Algorithm 1 vs Algorithm 4 sample counts.
		_, stBasic, err := core.BuildWithStats(g, &core.Options{Eps: 0.05, Seed: *seedFlag, BasicEstimator: true})
		if err != nil {
			return err
		}
		_, stAdaptive, err := core.BuildWithStats(g, &core.Options{Eps: 0.05, Seed: *seedFlag})
		if err != nil {
			return err
		}
		fmt.Printf("d-estimation walk pairs:  Alg1 (basic) %d   Alg4 (adaptive) %d   saving %.1fx\n",
			stBasic.WalkPairs, stAdaptive.WalkPairs,
			float64(stBasic.WalkPairs)/float64(stAdaptive.WalkPairs))

		// 5.2: space reduction on/off.
		full, err := core.Build(g, &core.Options{Eps: 0.05, Seed: *seedFlag, DisableSpaceReduction: true})
		if err != nil {
			return err
		}
		red, err := core.Build(g, &core.Options{Eps: 0.05, Seed: *seedFlag})
		if err != nil {
			return err
		}
		pairs := workload.RandomPairs(g, 2000, *seedFlag+3)
		sF, sR := full.NewScratch(), red.NewScratch()
		tFull, _ := timeBox(len(pairs), 5*time.Second, func(i int) { full.SimRank(pairs[i].U, pairs[i].V, sF) })
		tRed, _ := timeBox(len(pairs), 5*time.Second, func(i int) { red.SimRank(pairs[i].U, pairs[i].V, sR) })
		fmt.Printf("space reduction (5.2):    off %s / %s per query   on %s / %s per query\n",
			humanize.Bytes(full.Bytes()), fmtDur(tFull), humanize.Bytes(red.Bytes()), fmtDur(tRed))

		// 5.3: enhancement on/off accuracy.
		enh, err := core.Build(g, &core.Options{Eps: 0.05, Seed: *seedFlag, Enhance: true})
		if err != nil {
			return err
		}
		ssP := red.NewSourceScratch()
		plainAll := eval.Collect(g.NumNodes(), func(u graph.NodeID, out []float64) []float64 {
			return red.SingleSource(u, ssP, out)
		})
		sE := enh.NewScratch()
		enhAll := eval.Collect(g.NumNodes(), func(u graph.NodeID, out []float64) []float64 {
			return enh.SingleSourceNaive(u, sE, out)
		})
		pm, _ := eval.MaxError(plainAll, truth)
		em, _ := eval.MaxError(enhAll, truth)
		pg, _ := eval.GroupErrors(plainAll, truth)
		eg, _ := eval.GroupErrors(enhAll, truth)
		fmt.Printf("enhancement (5.3):        off max err %.5f (S1 %.2e)   on max err %.5f (S1 %.2e)\n",
			pm, pg.S1, em, eg.S1)

		// Section 6: Alg 6 vs the Alg 3 loop vs the inverted-list approach.
		sources := workload.RandomNodes(g, 50, *seedFlag+5)
		out := make([]float64, g.NumNodes())
		ss := red.NewSourceScratch()
		iv := red.BuildInverted()
		t6, _ := timeBox(len(sources), 5*time.Second, func(i int) { red.SingleSource(sources[i], ss, out) })
		t3, _ := timeBox(len(sources), 5*time.Second, func(i int) { red.SingleSourceNaive(sources[i], sR, out) })
		tIV, _ := timeBox(len(sources), 5*time.Second, func(i int) { iv.SingleSource(sources[i], sR, out) })
		fmt.Printf("single-source:            Alg6 %s   Alg3-loop %s (%.1fx)   inverted lists %s (+%s space)\n",
			fmtDur(t6), fmtDur(t3), float64(t3)/float64(t6), fmtDur(tIV), humanize.Bytes(iv.Bytes()))
	}
	fmt.Println()
	return nil
}

// --------------------------------------------------------------- diskqps

// diskQPSRow is one (dataset, backend, workers) cell of the diskqps
// experiment, written to BENCH_diskqps.json. Backend "readat" is the
// positioned-read entry source; "mmap" is the zero-copy mapped one,
// where the OS page cache is the only cache. AllocsPerOp is measured
// once per backend on a warm single-worker pass; the mapped fetch
// path's contract is that it stays at zero.
type diskQPSRow struct {
	Dataset     string  `json:"dataset"`
	Backend     string  `json:"backend"`
	Workers     int     `json:"workers"`
	Queries     int     `json:"queries"`
	QPS         float64 `json:"qps"`
	Speedup     float64 `json:"speedup"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// allocsPerOp measures heap allocations per single-pair query on a warm
// single-worker pass: the first run settles scratch-pool capacities, the
// second is bracketed by MemStats.Mallocs readings.
func allocsPerOp(pool *core.ScratchPool, pairs []workload.Pair, ops int) (float64, error) {
	warm := ops
	if warm > 2048 {
		warm = 2048
	}
	if _, _, err := diskPairRun(pool, pairs, warm, 1); err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, _, err := diskPairRun(pool, pairs, ops, 1); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops), nil
}

// runDiskQPS measures the disk-resident serving tier (Section 5.4):
// single-pair QPS as concurrent query goroutines scale, for the
// positioned-read entry source and — where the platform supports it —
// the zero-copy mmap one. Before the pooled engine existed, disk queries
// went through one global mutex, so QPS was flat in goroutine count;
// this experiment is the evidence that the pooled path scales, and that
// the mapped path serves without allocating.
func runDiskQPS() error {
	def := []workload.Spec{}
	for _, name := range []string{"GrQc", "Wiki-Vote"} {
		s, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("unknown default dataset %q", name)
		}
		def = append(def, s)
	}
	specs, err := selectDatasets(def)
	if err != nil {
		return err
	}
	slingOpt, _, _, err := params(*presetFlag)
	if err != nil {
		return err
	}
	threads, err := parseInts(*threadsFlag)
	if err != nil {
		return err
	}
	backends := []string{"readat"}
	if core.MmapSupported() {
		backends = append(backends, "mmap")
	} else {
		fmt.Println("   (mmap backend skipped: unsupported on this platform)")
	}
	fmt.Printf("== Disk QPS: disk-resident single-pair queries vs goroutines and entry source (preset %s, scale %g) ==\n",
		*presetFlag, *scaleFlag)
	fmt.Println("   (speedup is relative to the first -threads entry of the same backend)")
	var rows []diskQPSRow
	w := newTab()
	fmt.Fprintln(w, "dataset\tbackend\tworkers\tqueries\ttotal\tqueries/s\tspeedup\tallocs/op")
	for _, spec := range specs {
		g := spec.Generate(*scaleFlag)
		ix, err := core.Build(g, &slingOpt)
		if err != nil {
			return fmt.Errorf("%s: build: %w", spec.Name, err)
		}
		dir, err := os.MkdirTemp("", "slingbench-diskqps")
		if err != nil {
			return err
		}
		path := dir + "/index.slix"
		if err := ix.SaveFile(path); err != nil {
			os.RemoveAll(dir)
			return err
		}
		pairs := workload.RandomPairs(g, 4096, *seedFlag+17)
		for _, backend := range backends {
			var d *core.DiskIndex
			if backend == "mmap" {
				d, err = core.OpenDiskIndexMmap(path, g)
			} else {
				d, err = core.OpenDiskIndex(path, g)
			}
			if err != nil {
				os.RemoveAll(dir)
				return err
			}
			pool := d.NewScratchPool()
			apo, err := allocsPerOp(pool, pairs, *diskOpsFlag)
			if err != nil {
				d.Close()
				os.RemoveAll(dir)
				return err
			}
			var serial time.Duration
			for _, th := range threads {
				total, elapsed, err := diskPairRun(pool, pairs, *diskOpsFlag, th)
				if err != nil {
					d.Close()
					os.RemoveAll(dir)
					return err
				}
				if th == threads[0] {
					serial = elapsed
				}
				fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%.0f\t%.2fx\t%.3f\n",
					spec.Name, backend, th, total, fmtDur(elapsed),
					float64(total)/elapsed.Seconds(), float64(serial)/float64(elapsed), apo)
				w.Flush()
				rows = append(rows, diskQPSRow{
					Dataset:     spec.Name,
					Backend:     backend,
					Workers:     th,
					Queries:     total,
					QPS:         float64(total) / elapsed.Seconds(),
					Speedup:     float64(serial) / float64(elapsed),
					AllocsPerOp: apo,
				})
			}
			d.Close()
		}
		os.RemoveAll(dir)
	}
	fmt.Println()
	return writeBenchJSON("BENCH_diskqps.json", rows, "diskqps")
}

// diskPairRun fires count single-pair disk queries across workers
// goroutines pulling from a shared atomic counter, and returns how many
// ran and the wall time.
func diskPairRun(pool *core.ScratchPool, pairs []workload.Pair, count, workers int) (int, time.Duration, error) {
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				p := pairs[i%len(pairs)]
				if _, err := pool.SimRank(p.U, p.V); err != nil {
					// Copy before taking the address: &err on the loop
					// variable would heap-allocate it every iteration,
					// polluting the allocs/op this benchmark reports.
					e := err
					firstErr.CompareAndSwap(nil, &e)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if ep := firstErr.Load(); ep != nil {
		return 0, 0, *ep
	}
	return count, elapsed, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}
