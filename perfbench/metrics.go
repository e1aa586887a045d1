package main

// metricDef names one reported metric. The tables below are the ones
// BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the service sees, reported with --trace 0.
// Every workload reports every one of them, and none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},           // input files handed over -> first correct answer (median of repeats)
	{"throughput_rps", "1/s", "higher"}, // reads completed per second in the closed loop
	{"latency_p50_us", "us", "lower"},   // read latency, nearest-rank
	{"latency_p99_us", "us", "lower"},
	{"index_bytes", "bytes", "lower"}, // serialized bytes of the served index
	{"heap_bytes", "bytes", "lower"},  // live Go heap the served deployment holds
}

// perLayer is reported with --trace 1, named by module. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"server.self_us", "us", "lower"}, // ServeHTTP minus its child spans, p50
	{"server.resp_bytes", "bytes", "lower"},
	{"catalog.acquire_us", "us", "lower"}, // Acquire + Querier + Release, p50
	{"catalog.open_s", "s", "lower"},      // lazy open of a catalog entry
	{"catalog.throttled", "count", "lower"},
	{"querier.self_us", "us", "lower"}, // sling facade call minus its core children, p50
	{"core.fragment_us", "us", "lower"},
	{"core.fragment_p99_us", "us", "lower"},
	{"core.fragment_entries", "count", "lower"},
	{"core.fetch_us", "us", "lower"}, // DiskIndex.FragmentOf minus Index.FragmentOf, same node
	{"core.open_s", "s", "lower"},
	{"core.join_us", "us", "lower"},
	{"core.propagate_us", "us", "lower"},
	{"core.propagate_p99_us", "us", "lower"},
	{"core.propagate_nonzero", "count", "lower"},
	{"core.select_us", "us", "lower"},
	{"core.select_useful", "ratio", "higher"}, // nonzero scores / scores scanned
	{"core.build_s", "s", "lower"},
	{"core.build_walk_pairs", "count", "lower"},
	{"core.build_hp_pushes", "count", "lower"},
	{"core.build_entries", "count", "lower"},
	{"core.build_dropped", "count", "higher"},
	{"graph.load_s", "s", "lower"},
	{"shard.call_fragment_us", "us", "lower"},
	{"shard.call_top_us", "us", "lower"},
	{"shard.wait_us", "us", "lower"}, // slowest shard per request, p50
	{"shard.router_self_us", "us", "lower"},
	{"shard.calls", "count", "lower"}, // shard calls per request
	{"shard.imbalance", "ratio", "lower"},
	{"shard.split_s", "s", "lower"},
	{"dynamic.update_us", "us", "lower"}, // whole /update span, p50
	{"dynamic.affected_share", "ratio", "lower"},
	{"dynamic.fallback_share", "ratio", "lower"}, // reads served by the Monte Carlo fallback
	{"dynamic.fallback_read_us", "us", "lower"},
	{"dynamic.clean_read_us", "us", "lower"},
	{"dynamic.rebuilds", "count", "higher"}, // threshold-triggered swaps while the writer ran
	{"dynamic.rebuild_s", "s", "lower"},
	{"dynamic.stale_ops_max", "count", "lower"},
	{"update_p50_ms", "ms", "lower"}, // /update latency from the batch's due time
	{"update_p99_ms", "ms", "lower"},
	{"freshness_p50_s", "s", "lower"}, // acknowledgement -> first swap that includes the batch
	{"durable.appends", "count", "lower"},
	{"durable.wal_bytes_per_op", "bytes", "lower"},
	{"durable.snapshots", "count", "lower"},
	{"loadgen.lag_ms", "ms", "lower"}, // p99 of how late the writer sent
	{"trace.overhead_us", "us", "lower"},
	{"trace.self_sum_gap", "ratio", "lower"}, // (sum of self times - request latency) / latency
}
