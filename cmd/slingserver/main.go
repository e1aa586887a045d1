// Command slingserver serves SimRank queries over HTTP from a SLING
// index. It either loads a prebuilt index (slingtool build) or builds one
// at startup.
//
//	slingserver -graph g.txt [-undirected] [-index idx.sling] [-eps 0.025] [-addr :8080] [-batch-workers N]
//	slingserver -graph g.txt -index idx.sling -disk [-mmap]
//	slingserver -graph g.txt -dynamic [-rebuild-threshold N] [-dyn-walks N] [-dyn-depth N] [-durable DIR]
//	slingserver -catalog manifest.json [-addr :8080]
//	slingserver -shards manifest.json [-addr :8080]
//
// With -disk the index file stays on disk (Section 5.4): only O(n)
// metadata is memory-resident and queries fetch HP entries with
// concurrent positioned reads over pooled scratch. Adding -mmap
// memory-maps the index instead and serves the entries as typed views
// — no read syscalls, one widening pass per fetch, the OS page cache is
// the only cache; on platforms without mmap support it falls back to
// positioned reads and says so.
//
// With -dynamic the graph accepts edge updates while serving: POST
// /update applies add/remove operations, queries touching updated
// regions fall back to fresh Monte Carlo estimation (-dyn-walks walks,
// -dyn-depth truncation), and the index rebuilds in the background after
// every -rebuild-threshold applied ops (0 = only via POST /rebuild),
// swapping epochs with zero query downtime. Dynamic mode builds at
// startup — unless -durable DIR holds earlier state, in which case the
// index restores from its latest snapshot plus WAL tail instead, so a
// restart loses nothing. With -durable every applied update batch
// journals (fsynced unless -durable-nosync) before it is acknowledged,
// rebuild epoch swaps write snapshots, and POST /snapshot checkpoints on
// demand.
//
// With -shards the server routes queries across a sharded deployment:
// the manifest (written by `slingtool shard split`) assigns each shard a
// contiguous node range and either a per-shard SLIX file (served
// in-process) or a base URL of a remote slingserver whose /shard
// endpoints it drives. Pair queries join the two endpoints' index
// fragments at the router; single-source and top-k queries go to the
// source's owner shard, which propagates the source's fragment once
// over the whole graph — all bitwise-identical to serving the unsharded
// index. GET /metrics exposes per-shard call latency and error series.
//
// With -catalog the server is multi-tenant: the JSON manifest declares
// many graphs (each memory, disk, or dynamic), lazily opened on first
// request, LRU-evicted under the manifest's global memory budget, and
// rate-limited by per-graph quotas (429 + Retry-After). Queries route by
// graph ID — GET /g/{id}/simrank and friends — while the un-prefixed
// legacy paths alias the manifest's default graph; GET /graphs lists the
// catalog.
//
// Endpoints (JSON): GET /simrank?u=&v=  /source?u=[&limit=]  /topk?u=&k=
// /stats  /healthz, plus POST /batch accepting a JSON array of
// simrank/source/topk operations executed concurrently on a worker pool
// bounded by -batch-workers. Node parameters use the edge list's original
// labels. GET /metrics serves every mode's instruments in Prometheus
// text exposition format.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"sling"
	"sling/internal/catalog"
	"sling/internal/httpclient"
	"sling/internal/humanize"
	"sling/internal/metrics"
	"sling/internal/server"
	"sling/internal/shard"
)

func main() {
	graphPath := flag.String("graph", "", "edge list file (required)")
	undirected := flag.Bool("undirected", false, "treat edges as undirected")
	indexPath := flag.String("index", "", "prebuilt index (optional; builds at startup otherwise)")
	eps := flag.Float64("eps", 0.025, "worst-case additive error when building")
	workers := flag.Int("workers", 1, "build parallelism")
	seed := flag.Uint64("seed", 1, "build seed")
	addr := flag.String("addr", ":8080", "listen address")
	batchWorkers := flag.Int("batch-workers", 0, "concurrent ops per /batch request (default GOMAXPROCS)")
	maxBatchOps := flag.Int("max-batch-ops", 0, "max ops per /batch request (default 4096)")
	disk := flag.Bool("disk", false, "serve disk-resident from -index: only O(n) metadata in memory")
	useMmap := flag.Bool("mmap", false, "with -disk: memory-map the index and serve zero-copy (falls back to positioned reads where unsupported)")
	dynamic := flag.Bool("dynamic", false, "accept edge updates while serving (POST /update, /rebuild)")
	rebuildThreshold := flag.Int("rebuild-threshold", 0, "applied update ops that trigger a background rebuild (0 = manual)")
	dynWalks := flag.Int("dyn-walks", 4096, "MC walks per affected-node estimate in -dynamic mode (0 = derive the guaranteed count)")
	dynDepth := flag.Int("dyn-depth", 0, "walk truncation depth in -dynamic mode (0 = derive from eps)")
	durableDir := flag.String("durable", "", "durable state directory for -dynamic mode: updates journal to a WAL there, rebuilds snapshot, and restart restores instead of rebuilding")
	durableNoSync := flag.Bool("durable-nosync", false, "skip fsync on WAL appends (faster; crash may lose the unsynced tail)")
	catalogPath := flag.String("catalog", "", "graph-catalog manifest (JSON); serves many graphs, routing by /g/{id}/")
	shardsPath := flag.String("shards", "", "shard routing manifest (slingtool shard split); routes queries across per-shard indexes")
	flag.Parse()

	if *shardsPath != "" {
		if *graphPath != "" || *disk || *dynamic || *indexPath != "" || *catalogPath != "" {
			fmt.Fprintln(os.Stderr, "slingserver: -shards carries its own graph and index configuration and is incompatible with -graph/-index/-disk/-dynamic/-catalog")
			flag.Usage()
			os.Exit(2)
		}
		handler, q, err := newSharded(*shardsPath, server.Config{
			BatchWorkers: *batchWorkers,
			MaxBatchOps:  *maxBatchOps,
		})
		if err != nil {
			log.Fatalf("sharded mode: %v", err)
		}
		defer q.Close()
		serve(*addr, handler)
		return
	}

	if *catalogPath != "" {
		if *graphPath != "" || *disk || *dynamic || *indexPath != "" {
			fmt.Fprintln(os.Stderr, "slingserver: -catalog carries its own per-graph configuration and is incompatible with -graph/-index/-disk/-dynamic")
			flag.Usage()
			os.Exit(2)
		}
		cat, err := catalog.Load(*catalogPath, nil)
		if err != nil {
			log.Fatalf("loading catalog: %v", err)
		}
		defer cat.Close()
		handler, err := server.NewCatalog(cat, server.Config{
			BatchWorkers: *batchWorkers,
			MaxBatchOps:  *maxBatchOps,
		})
		if err != nil {
			log.Fatalf("creating server: %v", err)
		}
		ids := cat.IDs()
		log.Printf("catalog %s: %d graphs %v, default %q", *catalogPath, len(ids), ids, cat.DefaultID())
		serve(*addr, handler)
		return
	}
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "slingserver: -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	if *disk && *indexPath == "" {
		fmt.Fprintln(os.Stderr, "slingserver: -disk requires -index (build one with slingtool)")
		flag.Usage()
		os.Exit(2)
	}
	if *useMmap && !*disk {
		fmt.Fprintln(os.Stderr, "slingserver: -mmap requires -disk (it maps the on-disk index)")
		flag.Usage()
		os.Exit(2)
	}
	if *dynamic && (*disk || *indexPath != "") {
		fmt.Fprintln(os.Stderr, "slingserver: -dynamic builds at startup and is incompatible with -disk/-index")
		flag.Usage()
		os.Exit(2)
	}
	if *durableDir != "" && !*dynamic {
		fmt.Fprintln(os.Stderr, "slingserver: -durable requires -dynamic (only the updatable backend journals)")
		flag.Usage()
		os.Exit(2)
	}
	if *dynamic && *undirected {
		// POST /update applies directed ops; on a graph loaded with both
		// directions per line a single add would silently break the
		// undirected invariant. Pre-expand the edge list and send both
		// directions per update instead.
		fmt.Fprintln(os.Stderr, "slingserver: -dynamic serves directed updates and is incompatible with -undirected (expand the edge list and send both directions per update)")
		flag.Usage()
		os.Exit(2)
	}
	g, labels, err := sling.LoadEdgeListFile(*graphPath, *undirected)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	log.Printf("graph: n=%d m=%d", g.NumNodes(), g.NumEdges())

	cfg := server.Config{
		BatchWorkers: *batchWorkers,
		MaxBatchOps:  *maxBatchOps,
	}
	var handler http.Handler
	if *dynamic {
		start := time.Now()
		do := &sling.DynamicOptions{
			RebuildThreshold: *rebuildThreshold,
			NumWalks:         *dynWalks,
			Depth:            *dynDepth,
			DurableDir:       *durableDir,
			DurableNoSync:    *durableNoSync,
		}
		bopts := []sling.BuildOption{
			sling.WithEps(*eps), sling.WithWorkers(*workers), sling.WithSeed(*seed),
		}
		var dx *sling.DynamicIndex
		how := "built"
		if *durableDir != "" {
			// Restore-or-create: a populated durable directory is the
			// authoritative state (it holds updates the edge list never
			// saw); a fresh one starts from the edge list.
			dx, err = sling.RestoreDynamic(do, bopts...)
			switch {
			case err == nil:
				how = "restored"
			case errors.Is(err, sling.ErrNoDurableState):
				dx, err = sling.NewDynamic(g, do, bopts...)
			}
		} else {
			dx, err = sling.NewDynamic(g, do, bopts...)
		}
		if err != nil {
			log.Fatalf("building dynamic index: %v", err)
		}
		defer dx.Close()
		st := dx.Stats()
		log.Printf("dynamic index %s in %v (epoch %d, %d MC walks, depth %d, rebuild threshold %d, durable LSN %d)",
			how, time.Since(start).Round(time.Millisecond), st.Epoch, st.NumWalks, st.Depth, st.RebuildThreshold, st.Durable.LSN)
		handler, err = server.NewDynamic(dx, labels, cfg)
		if err != nil {
			log.Fatalf("creating server: %v", err)
		}
	} else if *disk {
		di, err := sling.OpenDiskWithOptions(*indexPath, g, &sling.DiskOptions{Mmap: *useMmap})
		if err != nil {
			log.Fatalf("opening disk index: %v", err)
		}
		defer di.Close()
		mode := "positioned reads"
		if di.Mapped() {
			mode = "memory-mapped (zero-copy)"
		} else if *useMmap {
			mode = "positioned reads (mmap unsupported here; fell back)"
		}
		log.Printf("disk index %s: %d entries on disk, %s resident, %s",
			*indexPath, di.NumEntries(), humanize.Bytes(di.Bytes()), mode)
		handler, err = server.NewQuerier(di, labels, cfg)
		if err != nil {
			log.Fatalf("creating server: %v", err)
		}
	} else {
		var ix *sling.Index
		if *indexPath != "" {
			ix, err = sling.Open(*indexPath, g)
			if err != nil {
				log.Fatalf("opening index: %v", err)
			}
			log.Printf("index loaded from %s (%d entries)", *indexPath, ix.Stats().Entries)
		} else {
			start := time.Now()
			ix, err = sling.Build(g, sling.WithEps(*eps), sling.WithWorkers(*workers), sling.WithSeed(*seed))
			if err != nil {
				log.Fatalf("building index: %v", err)
			}
			log.Printf("index built in %v (%d entries, error bound %.4g)",
				time.Since(start).Round(time.Millisecond), ix.Stats().Entries, ix.ErrorBound())
		}
		handler, err = server.NewQuerier(ix, labels, cfg)
		if err != nil {
			log.Fatalf("creating server: %v", err)
		}
	}

	serve(*addr, handler)
}

// newSharded assembles the sharded router from a shard manifest: the
// shared graph, one client per shard (in-process over a SLIX file, or
// remote over HTTP), and a server whose registry also carries the
// router's per-shard call instruments.
func newSharded(manifestPath string, cfg server.Config) (http.Handler, *shard.Querier, error) {
	m, err := shard.Load(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	if m.Graph == "" {
		return nil, nil, fmt.Errorf("manifest %s names no graph", manifestPath)
	}
	g, labels, err := sling.LoadEdgeListFile(shard.Resolve(manifestPath, m.Graph), m.Undirected)
	if err != nil {
		return nil, nil, fmt.Errorf("loading graph: %w", err)
	}
	log.Printf("graph: n=%d m=%d", g.NumNodes(), g.NumEdges())
	clients := make([]shard.Client, len(m.Shards))
	closeAll := func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}
	for i, si := range m.Shards {
		switch {
		case si.URL != "":
			cl, err := httpclient.New(httpclient.Options{
				BaseURL: si.URL, Nodes: m.Nodes, Name: fmt.Sprintf("shard%d", si.ID),
			})
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			clients[i] = cl
			log.Printf("shard %d: nodes [%d,%d) remote at %s", si.ID, si.Lo, si.Hi, si.URL)
		case si.Path != "":
			sx, err := sling.Open(shard.Resolve(manifestPath, si.Path), g)
			if err != nil {
				closeAll()
				return nil, nil, fmt.Errorf("opening shard %d: %w", si.ID, err)
			}
			clients[i] = shard.NewLocal(sx)
			log.Printf("shard %d: nodes [%d,%d), %d entries, %s in-process",
				si.ID, si.Lo, si.Hi, si.Entries, humanize.Bytes(sx.Bytes()))
		default:
			closeAll()
			return nil, nil, fmt.Errorf("shard %d has neither path nor url", si.ID)
		}
	}
	// One registry for the server and the router, so GET /metrics
	// exposes the per-shard fan-out series alongside the HTTP ones.
	reg := metrics.NewRegistry()
	cfg.Registry = reg
	q, err := shard.New(m, clients, reg)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	handler, err := server.NewQuerier(q, labels, cfg)
	if err != nil {
		q.Close()
		return nil, nil, err
	}
	log.Printf("sharded serving: %d shards over %d nodes (c=%g, eps=%g)", len(m.Shards), m.Nodes, m.C, m.Eps)
	return handler, q, nil
}

func serve(addr string, handler http.Handler) {
	srv := &http.Server{
		Addr:         addr,
		Handler:      handler,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	log.Printf("serving on %s", addr)
	if err := srv.ListenAndServe(); err != nil {
		log.Fatal(err)
	}
}
