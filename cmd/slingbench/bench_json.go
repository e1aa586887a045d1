package main

// Machine-readable benchmark artifacts. The querier and catalog
// experiments double as regression baselines for the serving tier, so
// besides the human tables they write BENCH_querier.json and
// BENCH_catalog.json (into -benchout, default the working directory)
// with QPS and p50/p99 latencies read from the same fixed-bucket
// histograms GET /metrics exposes — the numbers CI trend-lines are the
// numbers operators would scrape in production.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sling"
	"sling/internal/catalog"
	"sling/internal/metrics"
	"sling/internal/server"
	"sling/internal/workload"
)

var (
	benchOutFlag = flag.String("benchout", ".", "directory for BENCH_*.json artifacts")
	catOpsFlag   = flag.Int("catops", 4000, "catalog: single-pair requests per graph")
	catWorkFlag  = flag.Int("catworkers", 4, "catalog: concurrent client goroutines")
)

// latencyStats is one operation family's reading: throughput plus the
// histogram's interpolated quantiles.
type latencyStats struct {
	Ops   uint64  `json:"ops"`
	QPS   float64 `json:"qps"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
}

func histStats(h *metrics.Histogram, wall time.Duration) latencyStats {
	n := h.Count()
	var qps float64
	if wall > 0 {
		qps = float64(n) / wall.Seconds()
	}
	return latencyStats{
		Ops:   n,
		QPS:   qps,
		P50us: h.Quantile(0.50) * 1e6,
		P99us: h.Quantile(0.99) * 1e6,
	}
}

type benchDoc struct {
	Experiment string      `json:"experiment"`
	Preset     string      `json:"preset"`
	Scale      float64     `json:"scale"`
	Rows       interface{} `json:"rows"`
}

func writeBenchJSON(name string, rows interface{}, experiment string) error {
	path := filepath.Join(*benchOutFlag, name)
	buf, err := json.MarshalIndent(benchDoc{
		Experiment: experiment,
		Preset:     *presetFlag,
		Scale:      *scaleFlag,
		Rows:       rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}

type querierRow struct {
	Dataset     string       `json:"dataset"`
	Backend     string       `json:"backend"`
	Pair        latencyStats `json:"pair"`
	TopK        latencyStats `json:"topk"`
	BatchPerSec float64      `json:"batch_sources_per_sec"`
}

// ---------------------------------------------------------------- catalog

type catalogRow struct {
	Graph   string       `json:"graph"`
	Mode    string       `json:"mode"`
	Pair    latencyStats `json:"pair"`
	HTTPErr uint64       `json:"http_errors"`
}

// writeEdgeList dumps a workload graph as the "from to" lines a catalog
// manifest entry loads.
func writeEdgeList(path string, g *sling.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	buf := make([]byte, 0, 1<<16)
	g.Edges(func(from, to sling.NodeID) bool {
		buf = append(buf, fmt.Sprintf("%d %d\n", from, to)...)
		if len(buf) >= 1<<16-64 {
			if _, err := f.Write(buf); err != nil {
				werr = err
				return false
			}
			buf = buf[:0]
		}
		return true
	})
	if werr == nil && len(buf) > 0 {
		_, werr = f.Write(buf)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// histCount reads the current observation count of one graph's request
// histogram.
func histCount(srv *server.Server, id string) uint64 {
	for _, pt := range srv.Registry().Snapshot() {
		if pt.Name == catalog.MetricLatency && len(pt.Labels) == 1 && pt.Labels[0].Value == id {
			return pt.Count
		}
	}
	return 0
}

// runCatalog stands up the full multi-tenant stack — manifest, catalog,
// HTTP server — over one dataset served three ways (memory, disk,
// dynamic), drives concurrent single-pair traffic through the real
// /g/{id}/simrank routes, and reports per-graph QPS and latency
// quantiles from the catalog's own request histograms.
func runCatalog() error {
	spec, ok := workload.ByName("GrQc")
	if !ok {
		return fmt.Errorf("unknown dataset GrQc")
	}
	if *datasetsFlag != "" {
		specs, err := selectDatasets([]workload.Spec{spec})
		if err != nil {
			return err
		}
		spec = specs[0]
	}
	slingOpt, _, _, err := params(*presetFlag)
	if err != nil {
		return err
	}
	g := spec.Generate(*scaleFlag)

	dir, err := os.MkdirTemp("", "slingbench-catalog")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	edges := filepath.Join(dir, "graph.txt")
	if err := writeEdgeList(edges, g); err != nil {
		return err
	}
	// The catalog loads the edge list, which renumbers nodes by first
	// appearance and drops isolated ones — so the prebuilt disk index and
	// the query workload must come from the loaded graph, and requests go
	// out in its label space.
	gl, labels, err := sling.LoadEdgeListFile(edges, false)
	if err != nil {
		return err
	}
	ix, err := sling.Build(gl, sling.WithOptions(slingOpt))
	if err != nil {
		return err
	}
	slix := filepath.Join(dir, "graph.slix")
	err = ix.Save(slix)
	ix.Close()
	if err != nil {
		return err
	}

	m := catalog.Manifest{
		Default: "mem",
		Graphs: []catalog.GraphSpec{
			{ID: "mem", Graph: edges, Eps: slingOpt.Eps, Seed: slingOpt.Seed},
			{ID: "disk", Graph: edges, Mode: "disk", Index: slix},
			{ID: "dyn", Graph: edges, Mode: "dynamic", Eps: slingOpt.Eps, Seed: slingOpt.Seed,
				Walks: *dynWalksFlag},
		},
	}
	cat, err := catalog.New(m, nil)
	if err != nil {
		return err
	}
	defer cat.Close()
	srv, err := server.NewCatalog(cat, server.Config{})
	if err != nil {
		return err
	}

	fmt.Printf("== Catalog: multi-tenant serving, %s three ways (preset %s, scale %g) ==\n",
		spec.Name, *presetFlag, *scaleFlag)
	pairs := workload.RandomPairs(gl, 4096, *seedFlag+31)
	w := newTab()
	fmt.Fprintln(w, "graph\tmode\tqps\tp50\tp99\thttp errors")
	var rows []catalogRow
	for gi, id := range []string{"mem", "disk", "dyn"} {
		mode := m.Graphs[gi].Mode
		if mode == "" {
			mode = "memory"
		}
		// Warm the entry first so the lazy open (graph load + index
		// build) doesn't land inside the timed window.
		warm := httptest.NewRequest("GET",
			fmt.Sprintf("/g/%s/simrank?u=%d&v=%d", id, labels[pairs[0].U], labels[pairs[0].V]), nil)
		warmRec := httptest.NewRecorder()
		srv.ServeHTTP(warmRec, warm)
		if warmRec.Code != 200 {
			return fmt.Errorf("catalog bench: warm-up for %s: http %d", id, warmRec.Code)
		}
		base := histCount(srv, id)

		var next, httpErrs atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < *catWorkFlag; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= *catOpsFlag {
						return
					}
					p := pairs[i%len(pairs)]
					req := httptest.NewRequest("GET",
						fmt.Sprintf("/g/%s/simrank?u=%d&v=%d", id, labels[p.U], labels[p.V]), nil)
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					if rec.Code != 200 {
						httpErrs.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)

		// Read the numbers back out of the same per-graph histogram the
		// /metrics exposition serves.
		var st latencyStats
		for _, pt := range srv.Registry().Snapshot() {
			if pt.Name != catalog.MetricLatency || len(pt.Labels) != 1 || pt.Labels[0].Value != id {
				continue
			}
			st = latencyStats{
				Ops:   pt.Count - base,
				QPS:   float64(pt.Count-base) / wall.Seconds(),
				P50us: pt.P50 * 1e6,
				P99us: pt.P99 * 1e6,
			}
		}
		rows = append(rows, catalogRow{Graph: id, Mode: mode, Pair: st, HTTPErr: uint64(httpErrs.Load())})
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%s\t%s\t%d\n", id, mode, st.QPS,
			fmtDur(time.Duration(st.P50us*1e3)), fmtDur(time.Duration(st.P99us*1e3)), httpErrs.Load())
		w.Flush()
	}
	if n := rows[0].HTTPErr + rows[1].HTTPErr + rows[2].HTTPErr; n > 0 {
		return fmt.Errorf("catalog bench: %d requests failed", n)
	}
	return writeBenchJSON("BENCH_catalog.json", rows, "catalog")
}
