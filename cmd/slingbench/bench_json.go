package main

// Machine-readable benchmark artifacts. The diskqps and sharded
// experiments write BENCH_diskqps.json and BENCH_sharded.json (into
// -benchout, default the working directory) beside their tables, so CI
// keeps their QPS trend lines. sharded reads its p50/p99 latencies from
// the same fixed-bucket histograms GET /metrics exposes.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sling/internal/metrics"
)

var benchOutFlag = flag.String("benchout", ".", "directory for BENCH_*.json artifacts")

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
