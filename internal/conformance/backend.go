// Package conformance is the differential-testing subsystem: it drives
// every serving backend of this repository — the in-memory index, the
// disk-resident index over a round-tripped SLIX file, the out-of-core
// build, the dynamic (updatable) index pre- and post-rebuild, and the
// HTTP server in memory/disk/dynamic mode — through the one sling.Querier
// interface, over a matrix of graph families × (c, ε) configurations ×
// deterministic seeds, and checks every cell against exact power-method
// SimRank.
//
// Each cell asserts the paper's headline guarantee and the properties
// the backends promise each other:
//
//   - additive accuracy: |s̃(u,v) − s(u,v)| ≤ ε for single-pair,
//     single-source, top-k and batch answers (Theorem 1);
//   - cross-backend equivalence: backends sharing one index answer
//     bitwise-identically (disk, out-of-core, and the HTTP modes against
//     the in-memory reference; the rebuilt dynamic index against a fresh
//     build of the mutated graph, modulo its documented [0,1] clamp);
//   - invariants: symmetry, s̃(u,u) ≈ 1, score range, and top-k/
//     source-top selections consistent with the backend's own
//     single-source row;
//   - the Querier contract: identical ErrNodeRange for bad nodes,
//     identical degenerate-k results, pre-cancelled contexts observed
//     before any work (contract_test.go).
//
// The matrix runs three ways: `go test ./internal/conformance`
// (time-budgeted subset), `slingtool conformance` (full matrix, JSON
// report), and the CI conformance job.
package conformance

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"

	"sling"
	"sling/internal/core"
	"sling/internal/httpclient"
	"sling/internal/server"
	"sling/internal/shard"
)

// Backend is a sling.Querier with a report label. The facade types
// implement Querier natively, so library backends are the facade values
// themselves behind a name; only the clamp view and the HTTP wire
// adapter carry real code.
type Backend interface {
	sling.Querier
	// Name identifies the backend in reports ("memory", "disk", "ooc",
	// "http-memory", ...). It may differ from Meta().Name when one kind
	// serves several roles (e.g. "ooc" is a memory index built
	// out-of-core).
	Name() string
}

// named labels a Querier for reports. Close passes through, but the
// harness owns every backend's lifecycle explicitly (StaticSet.closers,
// the dynamic index's Close), so named never closes on its behalf.
type named struct {
	sling.Querier
	name string
}

func (n named) Name() string { return n.name }
func (n named) Close() error { return nil }

// NamedBackend adapts any Querier into a report-labelled Backend.
func NamedBackend(q sling.Querier, name string) Backend { return named{Querier: q, name: name} }

// clampedBackend views an unclamped backend through the dynamic layer's
// [0, 1] clamp, recomputing top-k/source-top from the clamped row so
// selection ties break identically. It is the bitwise reference for the
// rebuilt dynamic index (which equals clamp01 of a fresh build).
type clampedBackend struct {
	inner Backend
	topk  func(scores []float64, k int, skip sling.NodeID) []sling.Scored
}

func newClampedBackend(inner Backend) clampedBackend {
	return clampedBackend{inner: inner, topk: core.SelectTop}
}

func clamp01(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func (b clampedBackend) Name() string { return b.inner.Name() + "-clamped" }
func (b clampedBackend) Meta() sling.QuerierMeta {
	m := b.inner.Meta()
	m.Clamped = true
	return m
}
func (b clampedBackend) SimRank(ctx context.Context, u, v sling.NodeID) (float64, error) {
	s, err := b.inner.SimRank(ctx, u, v)
	return clamp01(s), err
}
func (b clampedBackend) SingleSource(ctx context.Context, u sling.NodeID, out []float64) ([]float64, error) {
	row, err := b.inner.SingleSource(ctx, u, out)
	for i, s := range row {
		row[i] = clamp01(s)
	}
	return row, err
}
func (b clampedBackend) SingleSourceBatch(ctx context.Context, us []sling.NodeID) ([][]float64, error) {
	rows, err := b.inner.SingleSourceBatch(ctx, us)
	for _, row := range rows {
		for i, s := range row {
			row[i] = clamp01(s)
		}
	}
	return rows, err
}
func (b clampedBackend) TopK(ctx context.Context, u sling.NodeID, k int) ([]sling.Scored, error) {
	row, err := b.SingleSource(ctx, u, nil)
	if err != nil {
		return nil, err
	}
	return b.topk(row, k, u), nil
}
func (b clampedBackend) SourceTop(ctx context.Context, u sling.NodeID, limit int) ([]sling.Scored, error) {
	row, err := b.SingleSource(ctx, u, nil)
	if err != nil {
		return nil, err
	}
	return b.topk(row, limit, -1), nil
}
func (b clampedBackend) Close() error { return nil }

// HTTPError is a non-200 answer from an HTTP-mode backend. Edge-case
// tests assert on Code; the matrix treats any occurrence as a failure.
// It is the shared wire-adapter error: conformance keeps the historical
// name as an alias so existing assertions read unchanged.
type HTTPError = httpclient.Error

// httpBackend is the report-labelled view of the shared HTTP
// Querier-over-the-wire adapter (internal/httpclient): it drives a
// server.Server through its real HTTP surface (mux, handlers, JSON
// encoding) in-process. encoding/json emits the shortest float64
// representation that round-trips exactly, so scores survive the JSON
// hop bit-for-bit and HTTP modes participate in the bitwise
// cross-backend checks.
type httpBackend struct {
	*httpclient.Client
	name string
}

// NewHTTPBackend wraps an http.Handler serving the package server API
// over a graph of n nodes (dense IDs; no label mapping).
func NewHTTPBackend(name string, h http.Handler, n int, clamped bool) Backend {
	return newHTTPBackend(name, h, "", n, clamped)
}

// NewHTTPBackendAt is NewHTTPBackend under a route prefix — the adapter
// for one graph of a catalog server, e.g. prefix "/g/wiki" drives
// /g/wiki/simrank, /g/wiki/batch, /g/wiki/stats.
func NewHTTPBackendAt(name string, h http.Handler, prefix string, n int, clamped bool) Backend {
	return newHTTPBackend(name, h, prefix, n, clamped)
}

func newHTTPBackend(name string, h http.Handler, prefix string, n int, clamped bool) *httpBackend {
	c, err := httpclient.New(httpclient.Options{
		Handler: h,
		Prefix:  prefix,
		Nodes:   n,
		Name:    name,
		Clamped: clamped,
	})
	if err != nil {
		// Unreachable with a handler transport; misuse is a programmer
		// error in the harness itself.
		panic(err)
	}
	return &httpBackend{Client: c, name: name}
}

func (b *httpBackend) Name() string { return b.name }

// StaticSet is the group of backends that share one immutable index and
// therefore must answer bitwise-identically: the in-memory reference,
// the disk index over a round-tripped SLIX file, an out-of-core build,
// and (optionally) HTTP servers in memory and disk mode.
type StaticSet struct {
	Ref    Backend   // the in-memory reference
	Others []Backend // disk, ooc, and http modes
	// BuildMS records construction cost per backend name.
	BuildMS map[string]float64

	closers []func() error
}

// NewStaticSet builds the static backend group over g. dir receives the
// SLIX file and the out-of-core spill; withHTTP adds the two HTTP modes.
// On error every resource already acquired is released.
func NewStaticSet(g *sling.Graph, dir string, withHTTP bool, opts ...sling.BuildOption) (set *StaticSet, err error) {
	set = &StaticSet{BuildMS: make(map[string]float64)}
	defer func() {
		if err != nil {
			set.Close()
			set = nil
		}
	}()

	ix, ms, err := timed(func() (*sling.Index, error) { return sling.Build(g, opts...) })
	if err != nil {
		return nil, fmt.Errorf("conformance: memory build: %w", err)
	}
	set.Ref = NamedBackend(ix, "memory")
	set.BuildMS["memory"] = ms

	path := filepath.Join(dir, "conformance.slix")
	if err := ix.Save(path); err != nil {
		return nil, fmt.Errorf("conformance: saving SLIX: %w", err)
	}
	di, ms, err := timed(func() (*sling.DiskIndex, error) {
		return sling.OpenDisk(path, g)
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: opening disk index: %w", err)
	}
	set.closers = append(set.closers, di.Close)
	set.Others = append(set.Others, NamedBackend(di, "disk"))
	set.BuildMS["disk"] = ms

	// The zero-copy mapped mode shares the ReadAt index's file and serving
	// engine, so its cell asserts bitwise equality of the whole matrix
	// against every other backend. Platforms without mmap (or with
	// big-endian byte order) skip the cell — the facade would silently
	// fall back and the cell would duplicate "disk".
	if sling.MmapSupported() {
		mdi, ms, err := timed(func() (*sling.DiskIndex, error) {
			return sling.OpenDiskWithOptions(path, g, &sling.DiskOptions{Mmap: true})
		})
		if err != nil {
			return nil, fmt.Errorf("conformance: opening mmap disk index: %w", err)
		}
		if !mdi.Mapped() {
			mdi.Close()
			return nil, fmt.Errorf("conformance: mmap mode requested but not mapped")
		}
		set.closers = append(set.closers, mdi.Close)
		set.Others = append(set.Others, NamedBackend(mdi, "mmap"))
		set.BuildMS["mmap"] = ms
	}

	ooc, ms, err := timed(func() (*sling.Index, error) {
		return sling.BuildOutOfCore(g, dir, 1<<20, opts...)
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: out-of-core build: %w", err)
	}
	set.Others = append(set.Others, NamedBackend(ooc, "ooc"))
	set.BuildMS["ooc"] = ms

	// Sharded routing over in-process shard slices of the reference index:
	// the router (fragment routing, router-side pair joins, owner-computed
	// single-source and top-k) must be bitwise-invisible.
	// conformanceShards exceeds 1 so cross-shard pairs and sources on
	// every owner are actually exercised (Plan clamps on tiny graphs).
	sq, ms, err := timed(func() (*shard.Querier, error) {
		m, clients := shard.InProcess(ix, conformanceShards)
		return shard.New(m, clients, nil)
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: sharded querier: %w", err)
	}
	set.closers = append(set.closers, sq.Close)
	set.Others = append(set.Others, NamedBackend(sq, "sharded"))
	set.BuildMS["sharded"] = ms

	if withHTTP {
		n := g.NumNodes()
		memSrv, err := sserver(server.NewQuerier(ix, nil, server.Config{}))
		if err != nil {
			return nil, fmt.Errorf("conformance: memory server: %w", err)
		}
		set.Others = append(set.Others, NewHTTPBackend("http-memory", memSrv, n, false))
		diskSrv, err := sserver(server.NewQuerier(di, nil, server.Config{}))
		if err != nil {
			return nil, fmt.Errorf("conformance: disk server: %w", err)
		}
		set.Others = append(set.Others, NewHTTPBackend("http-disk", diskSrv, n, false))

		// The same sharded router, but with every shard behind its
		// own HTTP server's /shard routes — the remote deployment shape.
		hsq, ms, err := timed(func() (*shard.Querier, error) {
			hm := &shard.Manifest{Version: shard.ManifestVersion, Nodes: n, C: ix.C(), Eps: ix.ErrorBound()}
			var clients []shard.Client
			for i, r := range shard.Plan(ix.EntryBytes(), conformanceShards) {
				sx := ix.Shard(r[0], r[1])
				srv, err := sserver(server.NewQuerier(sx, nil, server.Config{}))
				if err != nil {
					return nil, fmt.Errorf("shard server %d: %w", i, err)
				}
				cl, err := httpclient.New(httpclient.Options{
					Handler: srv, Nodes: n, Name: fmt.Sprintf("shard%d", i),
				})
				if err != nil {
					return nil, err
				}
				hm.Shards = append(hm.Shards, shard.ShardInfo{ID: i, Lo: r[0], Hi: r[1], Bytes: sx.Bytes()})
				clients = append(clients, cl)
			}
			return shard.New(hm, clients, nil)
		})
		if err != nil {
			return nil, fmt.Errorf("conformance: http sharded querier: %w", err)
		}
		set.closers = append(set.closers, hsq.Close)
		set.Others = append(set.Others, NamedBackend(hsq, "http-sharded"))
		set.BuildMS["http-sharded"] = ms
	}
	return set, nil
}

// conformanceShards is the shard count the sharded cells run with.
const conformanceShards = 3

// sserver flattens the (server, error) constructor pair to an
// http.Handler.
func sserver(s *server.Server, err error) (http.Handler, error) { return s, err }

// Close releases every resource the set owns.
func (s *StaticSet) Close() {
	for _, c := range s.closers {
		c()
	}
}

// All returns the reference followed by the other backends.
func (s *StaticSet) All() []Backend {
	return append([]Backend{s.Ref}, s.Others...)
}
