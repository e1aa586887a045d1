package server

import (
	"sling"
	"sling/internal/metrics"
)

// Per-mode /stats documents. Query routing needs no per-backend code at
// all — every handler talks sling.Querier — so the only backend-aware
// surface left is observability: /stats serves a typed view selected by
// the backend's concrete type (the JSON field sets are golden-schema
// pinned in stats_schema_test.go), and registerBackendGauges bridges
// each backend's internal counters — the in-memory index's size, the
// dynamic index's epoch/staleness/rebuild state — into the metrics
// registry so GET /metrics exposes them alongside the HTTP instruments.

// memoryStatsView is the /stats document of an in-memory index.
type memoryStatsView struct {
	Mode        string  `json:"mode"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	Entries     int     `json:"entries"`
	AvgEntries  float64 `json:"avg_entries"`
	MaxEntries  int     `json:"max_entries"`
	IndexBytes  int64   `json:"index_bytes"`
	GraphBytes  int64   `json:"graph_bytes"`
	ErrorBound  float64 `json:"error_bound"`
	DecayFactor float64 `json:"decay_factor"`
	CanceledOps uint64  `json:"canceled_ops"`
}

// diskStatsView is the /stats document of a disk-resident index.
type diskStatsView struct {
	Mode          string  `json:"mode"`
	Nodes         int     `json:"nodes"`
	Edges         int     `json:"edges"`
	Entries       int64   `json:"entries"`
	ResidentBytes int64   `json:"resident_bytes"`
	GraphBytes    int64   `json:"graph_bytes"`
	ErrorBound    float64 `json:"error_bound"`
	DecayFactor   float64 `json:"decay_factor"`
	CanceledOps   uint64  `json:"canceled_ops"`
}

// dynamicStatsView is the /stats document of an updatable index.
type dynamicStatsView struct {
	Mode             string  `json:"mode"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	Epoch            uint64  `json:"epoch"`
	AffectedNodes    int     `json:"affected_nodes"`
	StaleOps         int     `json:"stale_ops"`
	TotalOps         uint64  `json:"total_ops"`
	Rebuilds         uint64  `json:"rebuilds"`
	RebuildRunning   bool    `json:"rebuild_running"`
	RebuildThreshold int     `json:"rebuild_threshold"`
	EpochsDrained    uint64  `json:"epochs_drained"`
	MCWalks          int     `json:"mc_walks"`
	MCDepth          int     `json:"mc_depth"`
	IndexBytes       int64   `json:"index_bytes"`
	ErrorBound       float64 `json:"error_bound"`
	DecayFactor      float64 `json:"decay_factor"`
	CanceledOps      uint64  `json:"canceled_ops"`

	// Durable is present only when the graph journals to disk.
	Durable *durableStatsView `json:"durable,omitempty"`
}

// durableStatsView is the nested WAL/snapshot section of the dynamic
// /stats document.
type durableStatsView struct {
	LSN              uint64 `json:"lsn"`
	WALSegments      int    `json:"wal_segments"`
	WALBytes         int64  `json:"wal_bytes"`
	Snapshots        int    `json:"snapshots"`
	LastSnapshotLSN  uint64 `json:"last_snapshot_lsn"`
	Appends          uint64 `json:"appends"`
	SnapshotsWritten uint64 `json:"snapshots_written"`
}

// querierStatsView is the mode-agnostic fallback for NewQuerier
// backends: everything QuerierMeta can say about the backend.
type querierStatsView struct {
	Mode        string  `json:"mode"`
	Nodes       int     `json:"nodes"`
	ErrorBound  float64 `json:"error_bound"`
	DecayFactor float64 `json:"decay_factor"`
	Clamped     bool    `json:"clamped"`
	Epoch       uint64  `json:"epoch"`
	CanceledOps uint64  `json:"canceled_ops"`
}

// durableView maps the dynamic layer's durable stats into the nested
// /stats section, nil when the graph has no durable storage.
func durableView(d sling.DynamicDurableStats) *durableStatsView {
	if !d.Enabled {
		return nil
	}
	return &durableStatsView{
		LSN:              d.LSN,
		WALSegments:      d.WALSegments,
		WALBytes:         d.WALBytes,
		Snapshots:        d.Snapshots,
		LastSnapshotLSN:  d.LastSnapshotLSN,
		Appends:          d.Appends,
		SnapshotsWritten: d.SnapshotsWritten,
	}
}

// statsView builds the typed /stats document for a backend, dispatching
// on its concrete type.
func statsView(q sling.Querier, canceled uint64) interface{} {
	switch b := q.(type) {
	case *sling.Index:
		st := b.Stats()
		g := b.Graph()
		return memoryStatsView{
			Mode:        "memory",
			Nodes:       g.NumNodes(),
			Edges:       g.NumEdges(),
			Entries:     st.Entries,
			AvgEntries:  st.AvgEntries,
			MaxEntries:  st.MaxEntries,
			IndexBytes:  st.Bytes,
			GraphBytes:  g.Bytes(),
			ErrorBound:  b.ErrorBound(),
			DecayFactor: b.C(),
			CanceledOps: canceled,
		}
	case *sling.DiskIndex:
		g := b.Graph()
		return diskStatsView{
			Mode:          "disk",
			Nodes:         g.NumNodes(),
			Edges:         g.NumEdges(),
			Entries:       b.NumEntries(),
			ResidentBytes: b.Bytes(),
			GraphBytes:    g.Bytes(),
			ErrorBound:    b.ErrorBound(),
			DecayFactor:   b.C(),
			CanceledOps:   canceled,
		}
	case *sling.DynamicIndex:
		st := b.Stats()
		return dynamicStatsView{
			Mode:             "dynamic",
			Nodes:            st.Nodes,
			Edges:            st.Edges,
			Epoch:            st.Epoch,
			AffectedNodes:    st.AffectedNodes,
			StaleOps:         st.StaleOps,
			TotalOps:         st.TotalOps,
			Rebuilds:         st.Rebuilds,
			RebuildRunning:   st.RebuildRunning,
			RebuildThreshold: st.RebuildThreshold,
			EpochsDrained:    st.EpochsDrained,
			MCWalks:          st.NumWalks,
			MCDepth:          st.Depth,
			IndexBytes:       st.IndexBytes,
			ErrorBound:       st.ErrorBound,
			DecayFactor:      b.C(),
			CanceledOps:      canceled,
			Durable:          durableView(st.Durable),
		}
	default:
		m := q.Meta()
		return querierStatsView{
			Mode:        m.Name,
			Nodes:       m.Nodes,
			ErrorBound:  m.Eps,
			DecayFactor: m.C,
			Clamped:     m.Clamped,
			Epoch:       m.Epoch,
			CanceledOps: canceled,
		}
	}
}

// Backend instrument names, shared with the exposition golden test.
const (
	MetricIndexBytes         = "sling_index_bytes"
	MetricIndexEntries       = "sling_index_entries"
	MetricDynamicEpoch       = "sling_dynamic_epoch"
	MetricDynamicStaleOps    = "sling_dynamic_stale_ops"
	MetricDynamicRebuilds    = "sling_dynamic_rebuilds"
	MetricDynamicAffected    = "sling_dynamic_affected_nodes"
	MetricDynamicRebuildBusy = "sling_dynamic_rebuild_running"
	MetricDynamicEpochsFreed = "sling_dynamic_epochs_drained"
	MetricDynamicTotalOps    = "sling_dynamic_total_ops"
)

// registerBackendGauges bridges a single-graph backend's internal
// counters into the registry as collect-on-scrape gauges, so the same
// numbers /stats reports are scrapeable from GET /metrics without a
// second bookkeeping path.
func registerBackendGauges(reg *metrics.Registry, q sling.Querier) {
	switch b := q.(type) {
	case *sling.Index:
		reg.GaugeFunc(MetricIndexBytes, "resident index bytes", func() float64 { return float64(b.Bytes()) })
		reg.GaugeFunc(MetricIndexEntries, "stored HP entries", func() float64 { return float64(b.Stats().Entries) })
	case *sling.DynamicIndex:
		reg.GaugeFunc(MetricDynamicEpoch, "serving index generation", func() float64 { return float64(b.Stats().Epoch) })
		reg.GaugeFunc(MetricDynamicStaleOps, "applied ops not yet rebuilt", func() float64 { return float64(b.Stats().StaleOps) })
		reg.GaugeFunc(MetricDynamicTotalOps, "lifetime applied ops", func() float64 { return float64(b.Stats().TotalOps) })
		reg.GaugeFunc(MetricDynamicRebuilds, "completed epoch swaps", func() float64 { return float64(b.Stats().Rebuilds) })
		reg.GaugeFunc(MetricDynamicAffected, "staleness-frontier size", func() float64 { return float64(b.Stats().AffectedNodes) })
		reg.GaugeFunc(MetricDynamicRebuildBusy, "1 while a rebuild runs", func() float64 {
			if b.Stats().RebuildRunning {
				return 1
			}
			return 0
		})
		reg.GaugeFunc(MetricDynamicEpochsFreed, "retired epochs", func() float64 { return float64(b.Stats().EpochsDrained) })
	}
}
