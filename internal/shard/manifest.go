// Package shard is the sharded serving tier: it partitions the node
// space into contiguous ranges, each served by a per-shard SLIX index
// (full O(n) metadata, HP entries only for the owned range), and routes
// queries across them behind one sling.Querier. A pair query joins two
// owners' fragments at the router; a single-source or top-k query is
// answered whole by the source's owner.
//
// Shard assignment balances index bytes, not node counts — real graphs
// have heavily skewed degree and index mass, so an even node split can
// leave one shard holding most of the index. The routing table is a
// contiguous-range manifest (JSON), so node→shard lookup is a binary
// search and per-shard files are plain SLIX artifacts `slingtool shard
// split` writes.
//
// Query execution reuses the single-index algorithms verbatim on each
// side of the wire, so sharded answers are bitwise-identical to the
// unsharded reference — the conformance matrix pins this for both
// in-process and HTTP shard clients.
package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sling"
	"sling/internal/atomicio"
)

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// ShardInfo describes one shard: its contiguous node range [Lo, Hi) and
// how to reach it — a SLIX file path (relative paths resolve against the
// manifest's directory) for in-process serving, or a base URL for a
// remote slingserver.
type ShardInfo struct {
	ID      int    `json:"id"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Path    string `json:"path,omitempty"`
	URL     string `json:"url,omitempty"`
	Entries int64  `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// Manifest is the routing table of a sharded deployment: the node space,
// the guarantee parameters every shard shares, the graph they were built
// over, and the shard ranges in ascending node order.
type Manifest struct {
	Version int     `json:"version"`
	Nodes   int     `json:"nodes"`
	C       float64 `json:"c"`
	Eps     float64 `json:"eps"`
	// Graph is the edge-list path shards load (relative to the manifest's
	// directory); empty when the deployment wires graphs out of band.
	Graph      string      `json:"graph,omitempty"`
	Undirected bool        `json:"undirected,omitempty"`
	Shards     []ShardInfo `json:"shards"`
}

// Validate checks the manifest is a routing table: a known version and
// shard ranges that contiguously cover [0, Nodes) in order.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("shard: unsupported manifest version %d", m.Version)
	}
	if m.Nodes < 0 {
		return fmt.Errorf("shard: negative node count %d", m.Nodes)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: manifest has no shards")
	}
	lo := 0
	for i, s := range m.Shards {
		if s.ID != i {
			return fmt.Errorf("shard: shard %d carries id %d", i, s.ID)
		}
		if s.Lo != lo || s.Hi < s.Lo {
			return fmt.Errorf("shard: shard %d range [%d,%d) does not continue at %d", i, s.Lo, s.Hi, lo)
		}
		lo = s.Hi
	}
	if lo != m.Nodes {
		return fmt.Errorf("shard: shards cover [0,%d), want [0,%d)", lo, m.Nodes)
	}
	return nil
}

// Save writes the manifest as JSON to path, atomically.
func (m *Manifest) Save(path string) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(append(buf, '\n'))
		return werr
	})
}

// Load reads and validates a manifest from path.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Resolve returns a shard-relative path resolved against the manifest's
// directory (absolute paths pass through).
func Resolve(manifestPath, rel string) string {
	if rel == "" || filepath.IsAbs(rel) {
		return rel
	}
	return filepath.Join(filepath.Dir(manifestPath), rel)
}

// Plan partitions nodes 0..len(weights) into nshards contiguous ranges
// of roughly equal total weight: shard i closes once the cumulative
// weight reaches i+1 shares of the total, while always keeping at least
// one node for every remaining shard. nshards is clamped to [1, n].
func Plan(weights []int64, nshards int) [][2]int {
	n := len(weights)
	if nshards > n {
		nshards = n
	}
	if nshards < 1 {
		nshards = 1
	}
	var total int64
	for _, w := range weights {
		total += w
	}
	ranges := make([][2]int, 0, nshards)
	lo := 0
	var cum int64
	for s := 0; s < nshards; s++ {
		hi := n
		if s < nshards-1 {
			target := total * int64(s+1) / int64(nshards)
			maxHi := n - (nshards - 1 - s) // leave a node for each remaining shard
			hi = lo + 1
			cum += weights[lo]
			for hi < maxHi && cum < target {
				cum += weights[hi]
				hi++
			}
		}
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}

// Split slices ix into nshards per-shard indexes balanced by entry
// bytes, writes each as dir/shard-NNN.slix, and returns the manifest
// (not yet saved; Graph/Undirected are left for the caller to fill).
func Split(ix *sling.Index, nshards int, dir string) (*Manifest, error) {
	ranges := Plan(ix.EntryBytes(), nshards)
	m := &Manifest{
		Version: ManifestVersion,
		Nodes:   ix.Graph().NumNodes(),
		C:       ix.C(),
		Eps:     ix.ErrorBound(),
	}
	for i, r := range ranges {
		sx := ix.Shard(r[0], r[1])
		name := fmt.Sprintf("shard-%03d.slix", i)
		if err := sx.Save(filepath.Join(dir, name)); err != nil {
			return nil, fmt.Errorf("shard: writing %s: %w", name, err)
		}
		m.Shards = append(m.Shards, ShardInfo{
			ID:      i,
			Lo:      r[0],
			Hi:      r[1],
			Path:    name,
			Entries: int64(sx.Stats().Entries),
			Bytes:   sx.Bytes(),
		})
	}
	return m, nil
}

// InProcess slices ix into nshards in-memory shard backends behind local
// clients — the single-process serving (and conformance) shape. The
// returned manifest routes by the same byte-balanced plan Split writes.
func InProcess(ix *sling.Index, nshards int) (*Manifest, []Client) {
	ranges := Plan(ix.EntryBytes(), nshards)
	m := &Manifest{
		Version: ManifestVersion,
		Nodes:   ix.Graph().NumNodes(),
		C:       ix.C(),
		Eps:     ix.ErrorBound(),
	}
	clients := make([]Client, 0, len(ranges))
	for i, r := range ranges {
		sx := ix.Shard(r[0], r[1])
		m.Shards = append(m.Shards, ShardInfo{
			ID:      i,
			Lo:      r[0],
			Hi:      r[1],
			Entries: int64(sx.Stats().Entries),
			Bytes:   sx.Bytes(),
		})
		clients = append(clients, NewLocal(sx))
	}
	return m, clients
}
