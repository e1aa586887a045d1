package dynamic

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"

	"sling/internal/core"
	"sling/internal/durable"
	"sling/internal/graph"
)

// ErrNotDurable is returned by Snapshot on an index built without
// Options.Durable.
var ErrNotDurable = errors.New("dynamic: index has no durable storage")

// ErrNoState is returned by Restore when the durable directory holds no
// snapshot to restore from.
var ErrNoState = errors.New("dynamic: no durable state to restore")

// ErrStateExists is returned by New when Options.Durable points at a
// directory that already holds state; reopen it with Restore.
var ErrStateExists = errors.New("dynamic: durable directory already holds state (use Restore)")

// Restore reopens the durable state in o.Durable.Dir: the newest valid
// snapshot supplies the epoch index (deserialized against its base
// graph) and the pending-op tail, whose replay onto the base graph must
// yield the snapshot's mutated edge set; WAL records past the snapshot
// are then replayed. Both replays decide each op by the rule Apply uses,
// and an op that rule rejects or finds a no-op is damage. The result
// answers bitwise-identically to the lost instance — the SLIX round trip
// preserves float bits, the replayed ops reproduce the exact staleness
// frontier, and the Monte Carlo estimator is a pure function of
// (options, graph) — provided o carries the same build options, walk
// budget, and seeds the state was created with (they are not persisted).
//
// Torn WAL tails were already truncated at the last valid record by
// recovery; any damage that could hide an acknowledged op fails here
// with durable.ErrCorrupt rather than restoring silently-wrong state.
// Once the replayed state is live the log drops its recovered snapshot
// and tail (durable.Log.ReleaseRecovered), which it no longer needs.
func Restore(o Options) (*Dynamic, error) {
	if o.Durable == nil {
		return nil, ErrNotDurable
	}
	wal, err := durable.Open(*o.Durable)
	if err != nil {
		return nil, err
	}
	d, err := restoreFrom(wal, o)
	if err != nil {
		wal.Close()
		return nil, err
	}
	return d, nil
}

func restoreFrom(wal *durable.Log, o Options) (*Dynamic, error) {
	snap := wal.Snapshot()
	if snap == nil {
		return nil, ErrNoState
	}
	base, err := baseGraph(snap)
	if err != nil {
		return nil, err
	}
	ix, err := core.ReadIndex(bytes.NewReader(snap.Index), base)
	if err != nil {
		return nil, fmt.Errorf("dynamic: reading snapshot index: %w", err)
	}
	d := newDynamic(base, ix, o)
	d.wal = wal
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cur.Load().gen.num = snap.Epoch // not yet shared; safe to fix up

	// Replay the snapshot's pending tail over its base graph, then
	// cross-check the result against the edge set the snapshot stored:
	// the two sections were written together, so any disagreement means
	// damage the per-file CRCs could not see (e.g. a restored backup
	// mixing generations).
	st := newStage(base)
	if err := st.replay(snap.Pending); err != nil {
		return nil, fmt.Errorf("%w: snapshot pending ops: %v", durable.ErrCorrupt, err)
	}
	d.pending = st.ops // already counted in snap.TotalOps
	d.totalOps.Store(snap.TotalOps)
	st = newStage(st.next())
	if !sameEdges(st.g, snap.Edges) {
		return nil, fmt.Errorf("%w: snapshot edge set (%d edges) disagrees with base+pending (%d edges)",
			durable.ErrCorrupt, len(snap.Edges), st.g.NumEdges())
	}
	// Then the WAL tail past the snapshot, staged as one batch so the
	// restored state is published once.
	for _, rec := range wal.Tail() {
		if err := st.replay(rec.Ops); err != nil {
			return nil, fmt.Errorf("%w: WAL record %d: %v", durable.ErrCorrupt, rec.LSN, err)
		}
	}
	d.commitLocked(st)
	// The replayed state is live; the log's copy of it is garbage.
	wal.ReleaseRecovered()
	return d, nil
}

// baseGraph builds a snapshot's base graph. The edge section is checked
// against BaseNodes first: graph.Builder panics on an out-of-range node,
// and a CRC-valid section naming one is damage like any other.
func baseGraph(snap *durable.Snapshot) (*graph.Graph, error) {
	n := snap.BaseNodes
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: snapshot base node count %d exceeds the node ID range", durable.ErrCorrupt, n)
	}
	b := graph.NewBuilder(n)
	for _, e := range snap.BaseEdges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("%w: snapshot base edge (%d,%d) out of range [0,%d)", durable.ErrCorrupt, e.From, e.To, n)
		}
		b.AddEdge(e.From, e.To)
	}
	return b.Build(), nil
}

// replay strictly re-stages journaled ops: every op must change the edge
// set exactly as it did originally (a no-op during replay means the log
// and the state diverged).
func (s *stage) replay(ops []durable.Op) error {
	for _, op := range ops {
		changed, err := s.decide(Op{Add: op.Add, From: op.From, To: op.To})
		if err != nil {
			return err
		}
		if !changed {
			return fmt.Errorf("journaled op (add=%t %d->%d) is a no-op against the replayed state", op.Add, op.From, op.To)
		}
	}
	return nil
}

// sameEdges reports whether edges, a snapshot's edge section in any
// order, is exactly g's edge set.
func sameEdges(g *graph.Graph, edges []durable.Edge) bool {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = edgeKey(e.From, e.To)
	}
	slices.Sort(keys)
	want := make([]uint64, 0, g.NumEdges())
	g.Edges(func(from, to graph.NodeID) bool {
		want = append(want, edgeKey(from, to))
		return true
	})
	return slices.Equal(keys, want)
}

// Snapshot manually captures the current state (epoch index, edge set,
// pending tail) as a durable snapshot, returning the WAL position it
// covers. Rebuilds snapshot automatically; this is the operational hook
// (POST /snapshot) for bounding WAL replay on graphs that rarely
// rebuild.
func (d *Dynamic) Snapshot() (uint64, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	if d.wal == nil {
		return 0, ErrNotDurable
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

// snapshotLocked writes the serving state as a snapshot: the generation's
// index and base graph, the published CSR's edges, and the pending ops.
// Caller holds mu (pending, the published view, and the WAL position
// cannot move) and guarantees d.wal is non-nil.
func (d *Dynamic) snapshotLocked() (uint64, error) {
	w := d.cur.Load()
	base := w.gen.ix.Graph()
	var buf bytes.Buffer
	if _, err := w.gen.ix.WriteTo(&buf); err != nil {
		return 0, err
	}
	s := &durable.Snapshot{
		Epoch:     w.gen.num,
		TotalOps:  d.totalOps.Load(),
		BaseNodes: base.NumNodes(),
		BaseEdges: edgeList(base),
		Index:     buf.Bytes(),
		Edges:     edgeList(w.g),
		Pending:   journalOps(d.pending),
	}
	if err := d.wal.WriteSnapshot(s); err != nil {
		return 0, err
	}
	return s.LSN, nil
}

// edgeList lists g's edges in (from, to) order, the form of a snapshot's
// edge sections.
func edgeList(g *graph.Graph) []durable.Edge {
	out := make([]durable.Edge, 0, g.NumEdges())
	g.Edges(func(from, to graph.NodeID) bool {
		out = append(out, durable.Edge{From: from, To: to})
		return true
	})
	return out
}

// journalOps converts applied ops to their journal form.
func journalOps(ops []Op) []durable.Op {
	out := make([]durable.Op, len(ops))
	for i, op := range ops {
		out[i] = durable.Op{Add: op.Add, From: op.From, To: op.To}
	}
	return out
}
