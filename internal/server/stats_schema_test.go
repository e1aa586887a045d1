package server

import (
	"fmt"
	"path/filepath"
	"testing"

	"sling"
	"sling/internal/rng"
)

// statsSchema declares the exact field set and JSON types of one server
// mode's /stats document. Decoded JSON numbers are float64, so "number"
// covers ints and floats; nested objects declare their own schema.
type statsSchema map[string]interface{}

// memoryStatsSchema et al. are the golden shapes: a field silently
// disappearing, appearing, or changing JSON type fails the test. Extend
// them deliberately when /stats grows.
var (
	memoryStatsSchema = statsSchema{
		"mode":         "string",
		"nodes":        "number",
		"edges":        "number",
		"entries":      "number",
		"avg_entries":  "number",
		"max_entries":  "number",
		"index_bytes":  "number",
		"graph_bytes":  "number",
		"error_bound":  "number",
		"decay_factor": "number",
		"canceled_ops": "number",
	}
	diskStatsSchema = statsSchema{
		"mode":           "string",
		"nodes":          "number",
		"edges":          "number",
		"entries":        "number",
		"resident_bytes": "number",
		"graph_bytes":    "number",
		"error_bound":    "number",
		"decay_factor":   "number",
		"canceled_ops":   "number",
	}
	dynamicStatsSchema = statsSchema{
		"mode":              "string",
		"nodes":             "number",
		"edges":             "number",
		"epoch":             "number",
		"affected_nodes":    "number",
		"stale_ops":         "number",
		"total_ops":         "number",
		"rebuilds":          "number",
		"rebuild_running":   "bool",
		"rebuild_threshold": "number",
		"epochs_drained":    "number",
		"mc_walks":          "number",
		"mc_depth":          "number",
		"index_bytes":       "number",
		"error_bound":       "number",
		"decay_factor":      "number",
		"canceled_ops":      "number",
	}
	// Durably-backed dynamic graphs grow a nested durable section; the
	// plain dynamic document must keep omitting it.
	dynamicDurableStatsSchema = func() statsSchema {
		s := statsSchema{}
		for k, v := range dynamicStatsSchema {
			s[k] = v
		}
		s["durable"] = statsSchema{
			"lsn":               "number",
			"wal_segments":      "number",
			"wal_bytes":         "number",
			"snapshots":         "number",
			"last_snapshot_lsn": "number",
			"appends":           "number",
			"snapshots_written": "number",
		}
		return s
	}()
)

// checkSchema asserts doc matches schema exactly: no missing fields, no
// extra fields, no type changes.
func checkSchema(t *testing.T, path string, schema statsSchema, doc map[string]interface{}) {
	t.Helper()
	for field, want := range schema {
		got, ok := doc[field]
		if !ok {
			t.Errorf("%s: field %q missing", path, field)
			continue
		}
		switch w := want.(type) {
		case statsSchema:
			nested, ok := got.(map[string]interface{})
			if !ok {
				t.Errorf("%s: field %q is %T, want object", path, field, got)
				continue
			}
			checkSchema(t, path+"."+field, w, nested)
		case string:
			var typeOK bool
			switch w {
			case "string":
				_, typeOK = got.(string)
			case "number":
				_, typeOK = got.(float64)
			case "bool":
				_, typeOK = got.(bool)
			default:
				t.Fatalf("bad schema type %q", w)
			}
			if !typeOK {
				t.Errorf("%s: field %q is %T, want %s", path, field, got, w)
			}
		}
	}
	for field := range doc {
		if _, ok := schema[field]; !ok {
			t.Errorf("%s: unexpected field %q = %v (extend the golden schema deliberately)",
				path, field, doc[field])
		}
	}
}

// TestStatsSchemaPerMode pins the /stats JSON shape of every server
// mode, so monitoring that scrapes these fields can't be broken
// silently.
func TestStatsSchemaPerMode(t *testing.T) {
	r := rng.New(9)
	n := 30
	b := sling.NewGraphBuilder(n)
	for i := 0; i < 150; i++ {
		b.AddEdge(sling.NodeID(r.Intn(n)), sling.NodeID(r.Intn(n)))
	}
	g := b.Build()
	opts := []sling.BuildOption{sling.WithEps(0.1), sling.WithSeed(13)}
	ix, err := sling.Build(g, opts...)
	if err != nil {
		t.Fatal(err)
	}

	modes := []struct {
		name   string // subtest name; "mode" in the document
		mode   string
		schema statsSchema
		make   func(t *testing.T) *Server
	}{
		{"memory", "memory", memoryStatsSchema, func(t *testing.T) *Server {
			s, err := NewQuerier(ix, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"disk", "disk", diskStatsSchema, func(t *testing.T) *Server {
			path := filepath.Join(t.TempDir(), "ix.slix")
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
			return s
		}},
		{"dynamic", "dynamic", dynamicStatsSchema, func(t *testing.T) *Server {
			dx, err := sling.NewDynamic(g, &sling.DynamicOptions{NumWalks: 32}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dx.Close() })
			s, err := NewDynamic(dx, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"dynamic-durable", "dynamic", dynamicDurableStatsSchema, func(t *testing.T) *Server {
			dx, err := sling.NewDynamic(g,
				&sling.DynamicOptions{NumWalks: 32, DurableDir: t.TempDir(), DurableNoSync: true},
				opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dx.Close() })
			s, err := NewDynamic(dx, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			s := m.make(t)
			rec, body := get(t, s, "/stats")
			if rec.Code != 200 {
				t.Fatalf("/stats: %d", rec.Code)
			}
			if body["mode"] != m.mode {
				t.Fatalf("mode = %v, want %q", body["mode"], m.mode)
			}
			checkSchema(t, fmt.Sprintf("/stats[%s]", m.mode), m.schema, body)
		})
	}
}
