package main

// The sharded experiment bounds the sharded serving tier
// (internal/shard): one dataset served unsharded and at increasing
// in-process shard counts, measuring what the routing costs per query
// family. Pair queries touch at most two shards; single-source and
// top-k go to the source's owner alone, which propagates once over the
// whole graph, so their latency tracks one shard plus the router's
// fragment round trip. Not a paper figure — SLING the paper serves one
// index — but it pins the router's overhead and writes
// BENCH_sharded.json so CI trend-lines QPS vs shard count.

import (
	"context"
	"flag"
	"fmt"
	"time"

	"sling"
	"sling/internal/metrics"
	"sling/internal/shard"
	"sling/internal/workload"
)

var shardCountsFlag = flag.String("shard-counts", "1,2,4,8", "sharded: comma-separated shard counts to sweep")

type shardedRow struct {
	Dataset string `json:"dataset"`
	// Shards is the fan-out width; 0 is the unsharded direct index.
	Shards int          `json:"shards"`
	Pair   latencyStats `json:"pair"`
	Source latencyStats `json:"source"`
	TopK   latencyStats `json:"topk"`
}

// benchQuerier drives one backend through the three query families and
// reads the numbers from fixed-bucket serving histograms.
func benchQuerier(q sling.Querier, pairs []workload.Pair, sources []sling.NodeID) (pair, source, topk latencyStats, err error) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	pairH := reg.Histogram("pair_seconds", "single-pair latency", metrics.LatencyBuckets)
	srcH := reg.Histogram("source_seconds", "single-source latency", metrics.LatencyBuckets)
	topH := reg.Histogram("topk_seconds", "top-k latency", metrics.LatencyBuckets)
	var benchErr error
	var row []float64
	pairWall, _ := timeBox(len(pairs), *budgetFlag, func(i int) {
		t0 := time.Now()
		if _, e := q.SimRank(ctx, pairs[i].U, pairs[i].V); e != nil && benchErr == nil {
			benchErr = e
		}
		pairH.ObserveSince(t0)
	})
	srcWall, _ := timeBox(len(sources), *budgetFlag, func(i int) {
		t0 := time.Now()
		var e error
		if row, e = q.SingleSource(ctx, sources[i], row); e != nil && benchErr == nil {
			benchErr = e
		}
		srcH.ObserveSince(t0)
	})
	topWall, _ := timeBox(len(sources), *budgetFlag, func(i int) {
		t0 := time.Now()
		if _, e := q.TopK(ctx, sources[i], 10); e != nil && benchErr == nil {
			benchErr = e
		}
		topH.ObserveSince(t0)
	})
	if benchErr != nil {
		return pair, source, topk, benchErr
	}
	pair = histStats(pairH, pairWall*time.Duration(pairH.Count()))
	source = histStats(srcH, srcWall*time.Duration(srcH.Count()))
	topk = histStats(topH, topWall*time.Duration(topH.Count()))
	return pair, source, topk, nil
}

// runSharded sweeps QPS vs shard count over in-process shards.
func runSharded() error {
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
	counts, err := parseInts(*shardCountsFlag)
	if err != nil {
		return fmt.Errorf("bad -shard-counts: %w", err)
	}
	slingOpt, _, _, err := params(*presetFlag)
	if err != nil {
		return err
	}
	g := spec.Generate(*scaleFlag)
	ix, err := sling.Build(g, sling.WithOptions(slingOpt))
	if err != nil {
		return fmt.Errorf("%s: build: %w", spec.Name, err)
	}
	defer ix.Close()

	fmt.Printf("== Sharded: router QPS vs shard count, %s (preset %s, scale %g) ==\n",
		spec.Name, *presetFlag, *scaleFlag)
	pairs := workload.RandomPairs(g, *pairsFlag, *seedFlag+41)
	sources := workload.RandomNodes(g, *sourcesFlag, *seedFlag+43)
	w := newTab()
	fmt.Fprintln(w, "dataset\tshards\tpair qps\tsource qps\ttop-10 qps")
	var rows []shardedRow

	record := func(nshards int, q sling.Querier) error {
		pair, source, topk, err := benchQuerier(q, pairs, sources)
		if err != nil {
			return fmt.Errorf("%s shards=%d: %w", spec.Name, nshards, err)
		}
		rows = append(rows, shardedRow{Dataset: spec.Name, Shards: nshards, Pair: pair, Source: source, TopK: topk})
		label := fmt.Sprintf("%d", nshards)
		if nshards == 0 {
			label = "unsharded"
		}
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.0f\n", spec.Name, label, pair.QPS, source.QPS, topk.QPS)
		return nil
	}

	// The unsharded index is the baseline every shard count is read
	// against: the router's overhead is the gap to this row.
	if err := record(0, ix); err != nil {
		return err
	}
	for _, nshards := range counts {
		m, clients := shard.InProcess(ix, nshards)
		q, err := shard.New(m, clients, nil)
		if err != nil {
			return err
		}
		runErr := record(nshards, q)
		q.Close()
		if runErr != nil {
			return runErr
		}
	}
	w.Flush()
	fmt.Println()
	return writeBenchJSON("BENCH_sharded.json", rows, "sharded")
}
