package catalog

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// GraphSpec describes one graph in a catalog manifest: where its data
// lives, which backend serves it, and the limits it is served under.
type GraphSpec struct {
	// ID names the graph in routes (/g/{id}/...) and metric labels. It
	// must be non-empty and use only letters, digits, '.', '_', '-'.
	ID string `json:"id"`
	// Graph is the edge-list file path (SNAP format, as LoadEdgeListFile).
	Graph string `json:"graph"`
	// Undirected inserts both directions per edge-list line.
	Undirected bool `json:"undirected,omitempty"`
	// Mode selects the backend: "memory" (default), "disk", or "dynamic".
	Mode string `json:"mode,omitempty"`
	// Index is a prebuilt SLIX file. Required for disk mode; optional for
	// memory mode (loaded instead of building at open time).
	Index string `json:"index,omitempty"`

	// Build parameters (zero = package defaults), used when the entry
	// builds at open time.
	Eps     float64 `json:"eps,omitempty"`
	C       float64 `json:"c,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	Workers int     `json:"workers,omitempty"`

	// Mmap serves a disk-mode index from a zero-copy memory mapping
	// instead of positioned reads, falling back silently where the
	// platform cannot map. Requires disk mode.
	Mmap bool `json:"mmap,omitempty"`

	// Dynamic-mode tuning, as sling.DynamicOptions.
	RebuildThreshold int `json:"rebuild_threshold,omitempty"`
	Walks            int `json:"walks,omitempty"`
	Depth            int `json:"depth,omitempty"`
	// DurableDir enables durable storage for a dynamic graph: updates
	// journal to a WAL under this directory and rebuilds snapshot there.
	// When the directory already holds state, opening restores from it
	// instead of rebuilding from the edge list. Dynamic mode only.
	DurableDir string `json:"durable_dir,omitempty"`

	// MaxQPS is the per-graph operation quota (token bucket, one token
	// per query operation; a /batch of N ops costs N tokens). 0 means
	// unlimited.
	MaxQPS float64 `json:"max_qps,omitempty"`
	// Burst is the token-bucket capacity. 0 derives
	// max(1, ceil(MaxQPS), MaxBatchOps) so a full burst second — or one
	// maximal batch — can pass when the bucket is full.
	Burst int `json:"burst,omitempty"`
	// MaxBatchOps caps ops per /batch request for this graph; 0 falls
	// back to the server default.
	MaxBatchOps int `json:"max_batch_ops,omitempty"`
}

// Manifest is the catalog configuration: the graph set, the global
// memory budget, and which graph the legacy single-graph routes alias.
type Manifest struct {
	Graphs []GraphSpec `json:"graphs"`
	// MemoryBudgetBytes bounds the summed QuerierMeta.Bytes of open
	// backends; least-recently-used idle graphs are evicted (closed) to
	// fit. 0 means unlimited. A single graph larger than the budget is
	// still served — the budget evicts everything else around it.
	MemoryBudgetBytes int64 `json:"memory_budget_bytes,omitempty"`
	// Default is the graph ID the un-prefixed legacy routes (/simrank,
	// /batch, ...) serve. Empty means the first manifest entry.
	Default string `json:"default,omitempty"`
}

// idOK reports whether an ID is usable in URL paths and metric labels.
func idOK(id string) bool {
	if id == "" {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks structural invariants: at least one graph, valid
// unique IDs, known modes, disk entries with an index file, and a
// default that exists.
func (m *Manifest) Validate() error {
	if len(m.Graphs) == 0 {
		return fmt.Errorf("catalog: manifest has no graphs")
	}
	seen := make(map[string]bool, len(m.Graphs))
	for i := range m.Graphs {
		s := &m.Graphs[i]
		if !idOK(s.ID) {
			return fmt.Errorf("catalog: graph %d: bad id %q (want letters, digits, '.', '_', '-')", i, s.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("catalog: duplicate graph id %q", s.ID)
		}
		seen[s.ID] = true
		if s.Graph == "" {
			return fmt.Errorf("catalog: graph %q: missing edge-list path", s.ID)
		}
		switch s.Mode {
		case "", "memory", "dynamic":
		case "disk":
			if s.Index == "" {
				return fmt.Errorf("catalog: graph %q: disk mode requires an index file", s.ID)
			}
		default:
			return fmt.Errorf("catalog: graph %q: unknown mode %q (want memory|disk|dynamic)", s.ID, s.Mode)
		}
		if s.DurableDir != "" && s.mode() != "dynamic" {
			return fmt.Errorf("catalog: graph %q: durable_dir requires dynamic mode", s.ID)
		}
		if s.Mmap && s.mode() != "disk" {
			return fmt.Errorf("catalog: graph %q: mmap requires disk mode", s.ID)
		}
		if s.Mode == "dynamic" && s.Undirected {
			// Same invariant slingserver enforces: directed updates on a
			// both-directions-per-line graph would silently break it.
			return fmt.Errorf("catalog: graph %q: dynamic mode is incompatible with undirected loading", s.ID)
		}
		if s.MaxQPS < 0 || s.Burst < 0 || s.MaxBatchOps < 0 {
			return fmt.Errorf("catalog: graph %q: negative quota", s.ID)
		}
	}
	if m.Default != "" && !seen[m.Default] {
		return fmt.Errorf("catalog: default graph %q not in manifest", m.Default)
	}
	if m.MemoryBudgetBytes < 0 {
		return fmt.Errorf("catalog: negative memory budget")
	}
	return nil
}

// mode returns the spec's effective mode.
func (s *GraphSpec) mode() string {
	if s.Mode == "" {
		return "memory"
	}
	return s.Mode
}

// ParseManifest decodes and validates a manifest document. Unknown
// fields are rejected so a typo in a limit name cannot silently serve
// unlimited.
func ParseManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("catalog: parsing manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// LoadManifest reads a manifest from path. Relative Graph/Index paths
// are resolved against the manifest file's directory, so a manifest
// travels with its data.
func LoadManifest(path string) (Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	m, err := ParseManifest(f)
	if err != nil {
		return Manifest{}, err
	}
	dir := dirOf(path)
	for i := range m.Graphs {
		m.Graphs[i].Graph = resolve(dir, m.Graphs[i].Graph)
		m.Graphs[i].Index = resolve(dir, m.Graphs[i].Index)
		m.Graphs[i].DurableDir = resolve(dir, m.Graphs[i].DurableDir)
	}
	return m, nil
}

func dirOf(path string) string {
	if i := strings.LastIndexByte(path, os.PathSeparator); i >= 0 {
		return path[:i]
	}
	return "."
}

func resolve(dir, p string) string {
	if p == "" || os.IsPathSeparator(p[0]) {
		return p
	}
	return dir + string(os.PathSeparator) + p
}
