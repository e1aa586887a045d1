package server

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"sling"
	"sling/internal/rng"
)

// The /metrics exposition is a monitoring contract: dashboards and
// alerts reference instrument names and label sets by string. These
// golden tests pin the full name+kind set per server mode and the
// per-graph series identities in catalog mode, so a renamed or dropped
// instrument fails here instead of silently blanking a dashboard.

// serverInstruments is the mode-independent HTTP surface.
var serverInstruments = []string{
	MetricHTTPRequests + " counter",
	MetricHTTPErrors + " counter",
	MetricCanceledOps + " counter",
	MetricHTTPLatency + " histogram",
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func assertInstruments(t *testing.T, s *Server, extra []string) {
	t.Helper()
	want := sortedCopy(append(extra, serverInstruments...))
	got := sortedCopy(s.Registry().Names())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("instrument set drifted:\n got %v\nwant %v", got, want)
	}
}

func TestMetricsGoldenPerMode(t *testing.T) {
	r := rng.New(9)
	n := 30
	b := sling.NewGraphBuilder(n)
	for i := 0; i < 150; i++ {
		b.AddEdge(sling.NodeID(r.Intn(n)), sling.NodeID(r.Intn(n)))
	}
	g := b.Build()
	ix, err := sling.Build(g, sling.WithEps(0.1), sling.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("memory", func(t *testing.T) {
		s, err := NewQuerier(ix, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		assertInstruments(t, s, []string{
			MetricIndexBytes + " gauge",
			MetricIndexEntries + " gauge",
		})
	})

	t.Run("disk", func(t *testing.T) {
		path := t.TempDir() + "/ix.slix"
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		di, err := sling.OpenDisk(path, g)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { di.Close() })
		s, err := NewQuerier(di, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// A disk index registers no backend gauges.
		assertInstruments(t, s, nil)
	})

	t.Run("dynamic", func(t *testing.T) {
		dx, err := sling.NewDynamic(g, &sling.DynamicOptions{NumWalks: 32}, sling.WithEps(0.1), sling.WithSeed(13))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dx.Close() })
		s, err := NewDynamic(dx, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		assertInstruments(t, s, []string{
			MetricDynamicEpoch + " gauge",
			MetricDynamicStaleOps + " gauge",
			MetricDynamicTotalOps + " gauge",
			MetricDynamicRebuilds + " gauge",
			MetricDynamicAffected + " gauge",
			MetricDynamicRebuildBusy + " gauge",
			MetricDynamicEpochsFreed + " gauge",
		})
	})
}

func TestMetricsGoldenCatalog(t *testing.T) {
	s, cat, _ := catServer(t, 0)
	assertInstruments(t, s, []string{
		"sling_catalog_evictions_total counter",
		"sling_graph_throttled_total counter",
		"sling_graph_requests_total counter",
		"sling_graph_errors_total counter",
		"sling_graph_request_seconds histogram",
		"sling_catalog_graphs gauge",
		"sling_catalog_open_graphs gauge",
		"sling_catalog_resident_bytes gauge",
		"sling_catalog_budget_bytes gauge",
		"sling_graph_open gauge",
		"sling_graph_resident_bytes gauge",
		"sling_graph_epoch gauge",
	})

	// Every graph gets its labeled series registered up front — the
	// metric surface must not depend on traffic order.
	series := cat.Registry().SeriesLabels()
	for _, id := range []string{"mem", "disk", "dyn"} {
		for _, family := range []string{
			"sling_graph_requests_total",
			"sling_graph_throttled_total",
			"sling_graph_errors_total",
			"sling_graph_request_seconds",
			"sling_graph_open",
			"sling_graph_resident_bytes",
		} {
			want := family + `{graph="` + id + `"}`
			found := false
			for _, got := range series {
				if got == want {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("series %s missing", want)
			}
		}
	}

	// The exposition itself must carry HELP/TYPE headers for each family.
	var sb strings.Builder
	if err := s.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, family := range []string{"sling_graph_requests_total", "sling_http_requests_total", "sling_catalog_open_graphs"} {
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Errorf("exposition missing TYPE line for %s", family)
		}
		if !strings.Contains(out, "# HELP "+family+" ") {
			t.Errorf("exposition missing HELP line for %s", family)
		}
	}
}
