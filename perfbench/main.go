// Command perfbench is the repository's benchmark. It serves one named
// workload through the same internal/server handlers slingserver mounts,
// driving them in-process through ServeHTTP, checks the answers against
// a reference, and prints every metric with its unit. Run it from the
// repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload pair-uniform --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"latency_p50_us":{"value":9.1,"unit":"us"},...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around each layer's public entry points and reports
// the per-layer metrics instead. The line before it is the environment
// header. Progress goes to standard error.
//
//	bash perfbench/run.sh compare DIR_A DIR_B
//
// reads two sets of saved run outputs and reports, per workload and
// end-to-end metric, each side's median and quartiles and whether the
// sides agree within the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sling"
)

// Parameters every workload shares. ε and c are slingserver's defaults.
const (
	eps        = 0.025
	decay      = 0.6
	topK       = 10
	zipfS      = 0.99
	streamLen  = 1 << 20 // pre-generated requests per stream
	checkEvery = 64      // every 64th request's answer is checked
	maxClients = 2       // closed-loop clients, never more than the CPUs
)

// run is one benchmark run: its settings and everything it measured.
type run struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	work     string // scratch directory, removed at exit
	env      envHeader
	rec      *recorder // trace mode only

	chk               checker
	attempted, failed int64
	e2e, layer        map[string]float64
	detail            map[string]any
}

var workloads = map[string]func(*run) error{
	"pair-uniform": runPairUniform,
	"topk-zipf":    runTopKZipf,
	"topk-sharded": runTopKSharded,
	"rw-dynamic":   runRWDynamic,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed for the request streams and the index build")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		detail:   map[string]any{},
	}
	r.env = newEnvHeader(root)
	r.env.Workload, r.env.Seed, r.env.Seconds, r.env.Trace = r.workload, r.seed, r.seconds, r.trace
	r.env.Params = map[string]any{"eps": eps, "c": decay}
	r.work = filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-s%d-p%d", r.workload, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fatal(err)
	}
	if r.trace {
		r.rec = newRecorder()
	}
	err = fn(r)
	os.RemoveAll(r.work)
	if err != nil {
		fatal(err)
	}
	if r.trace {
		if err := r.writeSpans(root); err != nil {
			fatal(err)
		}
	}
	if err := r.print(); err != nil {
		fatal(err)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// writeSpans saves the run's spans under .bench_build/trace.
func (r *run) writeSpans(root string) error {
	dir := filepath.Join(root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d.spans.tsv", r.workload, r.seed))
	logf("spans written to %s", path)
	return r.rec.writeTSV(path)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the result line: a run is correct when at least one
// answer was checked, none mismatched and no request failed.
func (r *run) result() (result, error) {
	table, values := endToEnd, r.e2e
	if r.trace {
		table, values = perLayer, r.layer
	}
	res := result{
		Correct:   r.chk.ok() && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range table {
		v, ok := values[m.Name]
		if !ok && !r.trace {
			return result{}, fmt.Errorf("workload %s did not measure %s", r.workload, m.Name)
		}
		if math.IsInf(v, 1) {
			// A percentile that landed on a failed request, which counts
			// as slower than any limit. JSON has no infinity.
			v = math.MaxFloat64
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// print writes the environment header and then the result line.
func (r *run) print() error {
	res, err := r.result()
	if err != nil {
		return err
	}
	if len(r.chk.notes) > 0 {
		r.detail["check_failures"] = r.chk.notes
	}
	r.detail["answers_checked"] = r.chk.checked
	head, err := json.Marshal(map[string]any{"env": r.env, "detail": r.detail})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", head, line)
	return nil
}

// clients is the closed-loop client count.
func clients() int { return min(maxClients, runtime.NumCPU()) }

// liveHeap is the live Go heap after a forced collection. Mapped file
// pages are not heap and do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// buildOpts are the index options every workload serves with; the build
// seed is the run's seed.
func (r *run) buildOpts(workers int) []sling.BuildOption {
	return []sling.BuildOption{
		sling.WithEps(eps), sling.WithC(decay), sling.WithSeed(r.seed), sling.WithWorkers(workers),
	}
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
