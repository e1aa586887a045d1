// Command slingtool builds, inspects and queries SLING indexes over
// edge-list graphs.
//
// Subcommands:
//
//	slingtool build -graph g.txt [-undirected] [-eps 0.025] [-out idx.sling] [-workers N] [-ooc dir -mem MiB]
//	slingtool stats -graph g.txt [-undirected] -index idx.sling
//	slingtool query -graph g.txt [-undirected] -index idx.sling [-disk] u v [u v ...]
//	slingtool source -graph g.txt [-undirected] -index idx.sling -node u [-top k]
//	slingtool conformance [-families a,b] [-configs c:eps,...] [-n N] [-seed S] [-short] [-only backend-re] [-out BENCH_conformance.json]
//	slingtool shard split -graph g.txt -shards N -out DIR
//	slingtool durable inspect|verify DIR
//
// Node arguments use the original labels from the edge list.
//
// `slingtool durable` CRC-verifies a dynamic graph's durable state
// directory (-durable in slingserver, durable_dir in catalog manifests)
// without opening or modifying it: every snapshot and WAL segment is
// checksummed and the chain recovery would reconstruct is reported.
// `inspect` prints the segment chain and snapshot set (-json for the
// machine-readable report); `verify` prints a one-line summary. Both
// exit non-zero when the directory holds damage recovery would refuse —
// a torn final record is recoverable (recovery truncates it) and is
// reported but does not fail verification.
//
// `slingtool conformance` runs the full differential-conformance matrix
// (internal/conformance): every backend — in-memory, disk, out-of-core,
// dynamic stale and rebuilt, and the three HTTP server modes — over every
// graph family × (c, ε) configuration, checked against exact power-method
// SimRank. It prints the full JSON report to stdout, writes the
// per-family benchmark aggregate to -out, and exits non-zero when any
// cell fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sling"
	"sling/internal/conformance"
	"sling/internal/humanize"
	"sling/internal/shard"
	"sling/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "source":
		err = cmdSource(os.Args[2:])
	case "conformance":
		err = cmdConformance(os.Args[2:])
	case "shard":
		err = cmdShard(os.Args[2:])
	case "durable":
		err = cmdDurable(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "slingtool: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "slingtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  slingtool build  -graph g.txt [-undirected] [-eps 0.025] [-out idx.sling] [-workers N] [-enhance] [-ooc DIR -mem MiB]
  slingtool stats  -graph g.txt [-undirected] -index idx.sling
  slingtool query  -graph g.txt [-undirected] -index idx.sling [-disk] u v [u v ...]
  slingtool source -graph g.txt [-undirected] -index idx.sling -node u [-top k]
  slingtool conformance [-families a,b] [-configs c:eps,...] [-n N] [-seed S] [-short] [-only backend-re] [-out bench.json]
  slingtool shard split -graph g.txt [-undirected] -shards N -out DIR [-index idx.sling | -eps E -c C -workers N -enhance]
  slingtool durable inspect [-json] DIR
  slingtool durable verify DIR`)
}

// loadGraph parses the shared -graph/-undirected flags' target.
func loadGraph(path string, undirected bool) (*sling.Graph, []int64, map[int64]sling.NodeID, error) {
	if path == "" {
		return nil, nil, nil, fmt.Errorf("missing -graph")
	}
	g, labels, err := sling.LoadEdgeListFile(path, undirected)
	if err != nil {
		return nil, nil, nil, err
	}
	byLabel := make(map[int64]sling.NodeID, len(labels))
	for id, label := range labels {
		byLabel[label] = sling.NodeID(id)
	}
	return g, labels, byLabel, nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge list file")
	undirected := fs.Bool("undirected", false, "treat edges as undirected")
	eps := fs.Float64("eps", 0.025, "worst-case additive error")
	c := fs.Float64("c", 0.6, "decay factor")
	out := fs.String("out", "index.sling", "output index path")
	workers := fs.Int("workers", 1, "build parallelism")
	seed := fs.Uint64("seed", 1, "random seed")
	enhance := fs.Bool("enhance", false, "enable the Section 5.3 accuracy enhancement")
	oocDir := fs.String("ooc", "", "spill directory: build out-of-core (Section 5.4)")
	memMiB := fs.Int64("mem", 64, "out-of-core memory budget in MiB")
	fs.Parse(args)

	g, _, _, err := loadGraph(*graphPath, *undirected)
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d\n", g.NumNodes(), g.NumEdges())
	opts := []sling.BuildOption{
		sling.WithEps(*eps), sling.WithC(*c), sling.WithWorkers(*workers),
		sling.WithSeed(*seed), sling.WithEnhance(*enhance),
	}
	start := time.Now()
	var ix *sling.Index
	if *oocDir != "" {
		ix, err = sling.BuildOutOfCore(g, *oocDir, *memMiB<<20, opts...)
	} else {
		ix, err = sling.Build(g, opts...)
	}
	if err != nil {
		return err
	}
	fmt.Printf("built in %v: %d HP entries, %s in memory, guaranteed error <= %.4g\n",
		time.Since(start).Round(time.Millisecond), ix.Stats().Entries, humanize.Bytes(ix.Bytes()), ix.ErrorBound())
	if err := ix.Save(*out); err != nil {
		return err
	}
	fmt.Printf("saved to %s\n", *out)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge list file")
	undirected := fs.Bool("undirected", false, "treat edges as undirected")
	indexPath := fs.String("index", "", "index file")
	fs.Parse(args)

	g, _, _, err := loadGraph(*graphPath, *undirected)
	if err != nil {
		return err
	}
	ix, err := sling.Open(*indexPath, g)
	if err != nil {
		return err
	}
	st := ix.Stats()
	// Open verified every section checksum and entry, or it would have
	// failed.
	fmt.Printf("format:           SLIX v%d, %d node bits, checksums ok\n", st.Version, st.NodeBits)
	fmt.Printf("nodes:            %d\n", st.Nodes)
	fmt.Printf("HP entries:       %d (avg %.1f/node, max %d, theoretical cap %.0f)\n",
		st.Entries, st.AvgEntries, st.MaxEntries, st.TheoreticalCap)
	fmt.Printf("deepest step:     %d\n", st.MaxStep)
	fmt.Printf("space-reduced:    %d nodes\n", st.ReducedNodes)
	fmt.Printf("marked entries:   %d\n", st.MarkedEntries)
	fmt.Printf("memory:           %s (graph adds %s)\n", humanize.Bytes(st.Bytes), humanize.Bytes(g.Bytes()))
	fmt.Printf("error bound:      %.4g\n", ix.ErrorBound())
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge list file")
	undirected := fs.Bool("undirected", false, "treat edges as undirected")
	indexPath := fs.String("index", "", "index file")
	disk := fs.Bool("disk", false, "query the index from disk (constant memory)")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 || len(rest)%2 != 0 {
		return fmt.Errorf("need an even number of node arguments (pairs)")
	}
	g, _, byLabel, err := loadGraph(*graphPath, *undirected)
	if err != nil {
		return err
	}
	resolve := func(s string) (sling.NodeID, error) {
		label, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad node label %q", s)
		}
		id, ok := byLabel[label]
		if !ok {
			return 0, fmt.Errorf("%w: node %d not in graph", sling.ErrNodeRange, label)
		}
		return id, nil
	}
	var pairs [][2]sling.NodeID
	for i := 0; i < len(rest); i += 2 {
		u, err := resolve(rest[i])
		if err != nil {
			return err
		}
		v, err := resolve(rest[i+1])
		if err != nil {
			return err
		}
		pairs = append(pairs, [2]sling.NodeID{u, v})
	}
	// Memory and disk share one query path: both facade types implement
	// sling.Querier, so the loop below serves any backend.
	var q sling.Querier
	if *disk {
		q, err = sling.OpenDisk(*indexPath, g)
	} else {
		q, err = sling.Open(*indexPath, g)
	}
	if err != nil {
		return err
	}
	defer q.Close()
	ctx := context.Background()
	for i, p := range pairs {
		score, err := q.SimRank(ctx, p[0], p[1])
		if err != nil {
			return err
		}
		fmt.Printf("s(%s, %s) = %.6f\n", rest[2*i], rest[2*i+1], score)
	}
	return nil
}

// cmdConformance runs the differential conformance matrix: all backends
// × graph families × (c, eps) configs against exact SimRank.
func cmdConformance(args []string) error {
	fs := flag.NewFlagSet("conformance", flag.ExitOnError)
	familiesFlag := fs.String("families", "",
		fmt.Sprintf("comma-separated families (default all: %s)",
			strings.Join(workload.FamilyNames(), ",")))
	configsFlag := fs.String("configs", "", `comma-separated c:eps pairs, e.g. "0.6:0.05,0.8:0.15" (default the standard grid)`)
	n := fs.Int("n", 0, "target nodes per family (default 24)")
	seed := fs.Uint64("seed", 1, "matrix seed (graphs, builds, update mix)")
	short := fs.Bool("short", false, "CI subset: three families, one config")
	noHTTP := fs.Bool("no-http", false, "skip the HTTP server modes")
	noDynamic := fs.Bool("no-dynamic", false, "skip the dynamic backends")
	only := fs.String("only", "", "regexp over backend names: run only matching cells")
	out := fs.String("out", "", "write the per-family benchmark JSON (BENCH_conformance.json) here")
	quiet := fs.Bool("q", false, "suppress per-cell progress on stderr")
	fs.Parse(args)

	o := conformance.Options{N: *n, Seed: *seed, HTTP: !*noHTTP, Dynamic: !*noDynamic, Only: *only}
	if *familiesFlag != "" {
		fams, err := workload.ParseFamilies(strings.Split(*familiesFlag, ","))
		if err != nil {
			return err
		}
		o.Families = fams
	}
	if *configsFlag != "" {
		for _, part := range strings.Split(*configsFlag, ",") {
			c, eps, ok := strings.Cut(part, ":")
			if !ok {
				return fmt.Errorf("bad config %q, want c:eps", part)
			}
			cv, err1 := strconv.ParseFloat(strings.TrimSpace(c), 64)
			ev, err2 := strconv.ParseFloat(strings.TrimSpace(eps), 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("bad config %q, want c:eps", part)
			}
			o.Configs = append(o.Configs, conformance.Config{C: cv, Eps: ev})
		}
	}
	if *short {
		if o.Families == nil {
			fams, err := workload.ParseFamilies([]string{"er", "star", "degenerate"})
			if err != nil {
				return err
			}
			o.Families = fams
		}
		if o.Configs == nil {
			o.Configs = []conformance.Config{{C: 0.6, Eps: 0.1}}
		}
	}
	if !*quiet {
		o.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	dir, err := os.MkdirTemp("", "sling-conformance-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.Dir = dir

	rep, err := conformance.Run(o)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(os.Stdout); err != nil {
		return err
	}
	if *out != "" {
		if err := rep.SaveBench(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchmark aggregate written to %s\n", *out)
	}
	filtered := ""
	if rep.Filtered > 0 {
		filtered = fmt.Sprintf(", %d filtered by -only", rep.Filtered)
	}
	fmt.Fprintf(os.Stderr,
		"conformance: %d cells (%d families x %d configs x %d backends%s), worst error %.5f, min eps headroom %.5f, %.1fs\n",
		len(rep.Cells), len(rep.Families), len(rep.Configs), len(rep.Backends), filtered,
		rep.WorstErr, rep.MinHeadroom, rep.ElapsedMS/1000)
	if !rep.AllPass {
		return fmt.Errorf("%d of %d conformance cells failed", rep.Failures, len(rep.Cells))
	}
	return nil
}

// cmdShard handles the shard subcommands; today that is `shard split`,
// which partitions an index into per-shard SLIX files plus the routing
// manifest `slingserver -shards` consumes.
func cmdShard(args []string) error {
	if len(args) < 1 || args[0] != "split" {
		return fmt.Errorf("usage: slingtool shard split -graph g.txt -shards N -out DIR")
	}
	fs := flag.NewFlagSet("shard split", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge list file")
	undirected := fs.Bool("undirected", false, "treat edges as undirected")
	indexPath := fs.String("index", "", "prebuilt index to split (default: build fresh)")
	eps := fs.Float64("eps", 0.025, "worst-case additive error (fresh build)")
	c := fs.Float64("c", 0.6, "decay factor (fresh build)")
	workers := fs.Int("workers", 1, "build parallelism (fresh build)")
	seed := fs.Uint64("seed", 1, "random seed (fresh build)")
	enhance := fs.Bool("enhance", false, "Section 5.3 accuracy enhancement (fresh build)")
	nshards := fs.Int("shards", 2, "number of shards")
	out := fs.String("out", "shards", "output directory for shard files and manifest.json")
	fs.Parse(args[1:])

	g, _, _, err := loadGraph(*graphPath, *undirected)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o777); err != nil {
		return err
	}
	var ix *sling.Index
	if *indexPath != "" {
		ix, err = sling.Open(*indexPath, g)
	} else {
		ix, err = sling.Build(g,
			sling.WithEps(*eps), sling.WithC(*c), sling.WithWorkers(*workers),
			sling.WithSeed(*seed), sling.WithEnhance(*enhance))
	}
	if err != nil {
		return err
	}
	m, err := shard.Split(ix, *nshards, *out)
	if err != nil {
		return err
	}
	// The manifest records the graph so slingserver -shards can rebind
	// the shard files; an absolute path keeps it valid from any cwd.
	if m.Graph, err = filepath.Abs(*graphPath); err != nil {
		return err
	}
	m.Undirected = *undirected
	manifestPath := filepath.Join(*out, "manifest.json")
	if err := m.Save(manifestPath); err != nil {
		return err
	}
	for _, si := range m.Shards {
		fmt.Printf("shard %d: nodes [%d,%d), %d entries, %s -> %s\n",
			si.ID, si.Lo, si.Hi, si.Entries, humanize.Bytes(si.Bytes), si.Path)
	}
	fmt.Printf("manifest written to %s (%d shards over %d nodes)\n", manifestPath, len(m.Shards), m.Nodes)
	return nil
}

func cmdSource(args []string) error {
	fs := flag.NewFlagSet("source", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge list file")
	undirected := fs.Bool("undirected", false, "treat edges as undirected")
	indexPath := fs.String("index", "", "index file")
	node := fs.Int64("node", -1, "source node label")
	top := fs.Int("top", 10, "print the k most similar nodes")
	fs.Parse(args)

	g, labels, byLabel, err := loadGraph(*graphPath, *undirected)
	if err != nil {
		return err
	}
	id, ok := byLabel[*node]
	if !ok {
		return fmt.Errorf("%w: node %d not in graph", sling.ErrNodeRange, *node)
	}
	ix, err := sling.Open(*indexPath, g)
	if err != nil {
		return err
	}
	start := time.Now()
	scores, err := ix.SingleSource(context.Background(), id, nil)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	type scored struct {
		v     int
		score float64
	}
	var all []scored
	for v, s := range scores {
		if sling.NodeID(v) != id && s > 0 {
			all = append(all, scored{v, s})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].v < all[j].v
	})
	if *top < len(all) {
		all = all[:*top]
	}
	fmt.Printf("single-source from %d (%v):\n", *node, elapsed.Round(time.Microsecond))
	for _, s := range all {
		fmt.Printf("  %d\t%.6f\n", labels[s.v], s.score)
	}
	return nil
}
