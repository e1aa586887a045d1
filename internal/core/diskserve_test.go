package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"sync"
	"testing"

	"sling/internal/graph"
)

// saveTestIndex builds an index and writes it to a temp file, returning
// the index and the path.
func saveTestIndex(t *testing.T, g *graph.Graph, o *Options) (*Index, string) {
	t.Helper()
	x, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/index.slix"
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return x, path
}

func TestEntryCacheLRU(t *testing.T) {
	// One entry costs 16*100 + overhead = 1696 bytes; pick a per-shard
	// budget (above the minShardBytes floor) that fits three entries but
	// not four, so the fourth insert must evict.
	keys := make([]uint64, 100)
	vals := make([]float64, 100)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = float64(i) / 10
	}
	per := int64(16*len(keys) + cacheEntryOverhead)
	budget := per*3 + per/2 // three fit, four do not
	if budget < minShardBytes {
		t.Fatalf("test budget %d below shard floor; grow the entries", budget)
	}
	c := NewEntryCache(budget * cacheShardCount)
	if c == nil {
		t.Fatal("cache unexpectedly disabled")
	}
	// All in shard 0 (multiples of cacheShardCount) so eviction is forced.
	ids := []int32{0, 16, 32, 48}
	for _, id := range ids[:3] {
		c.Put(id, keys, vals)
	}
	if _, _, ok := c.Get(0); !ok {
		t.Fatal("freshly cached node missing")
	}
	// 0 is now most recent; inserting a fourth entry must evict 16.
	c.Put(ids[3], keys, vals)
	if _, _, ok := c.Get(16); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, _, ok := c.Get(0); !ok {
		t.Fatal("recently used entry evicted instead of LRU")
	}
	st := c.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if st.Hits < 2 || st.Misses < 1 {
		t.Fatalf("stats not counting: %+v", st)
	}
	if st.Bytes != 3*per {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 3*per)
	}
	// The cached copy must not alias the caller's slices.
	k, _, ok := c.Get(0)
	if !ok {
		t.Fatal("entry vanished")
	}
	keys[0] = 999
	if k[0] == 999 {
		t.Fatal("cache aliases caller buffers")
	}
}

func TestEntryCacheBudgetEdgeCases(t *testing.T) {
	if c := NewEntryCache(0); c != nil {
		t.Fatal("zero-budget cache not disabled")
	}
	if c := NewEntryCache(-1); c != nil {
		t.Fatal("negative-budget cache not disabled")
	}
	// A tiny positive budget must yield a working (floored) cache, not a
	// silent no-op.
	c := NewEntryCache(10)
	if c == nil {
		t.Fatal("tiny positive budget silently disabled the cache")
	}
	if st := c.Stats(); st.MaxBytes < cacheShardCount*minShardBytes {
		t.Fatalf("floored budget %d below minimum", st.MaxBytes)
	}
	c.Put(3, []uint64{1}, []float64{0.5})
	if _, _, ok := c.Get(3); !ok {
		t.Fatal("floored cache does not cache")
	}
	var nilCache *EntryCache
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Fatal("nil cache stats not zero")
	}
}

// Disk answers — single-pair, single-source, top-k, source-top, batch —
// must be byte-identical to the in-memory index, cached or not.
func TestDiskServeMatchesMemory(t *testing.T) {
	g := randomGraph(60, 360, 31)
	x, path := saveTestIndex(t, g, &Options{Eps: 0.08, Seed: 31, Enhance: true})
	for _, cacheBytes := range []int64{0, 1 << 20} {
		d, err := OpenDiskIndex(path, g)
		if err != nil {
			t.Fatal(err)
		}
		if cacheBytes > 0 {
			d.EnableCache(cacheBytes)
		}
		pool := d.NewScratchPool()
		ss := x.NewSourceScratch()
		for u := graph.NodeID(0); u < 60; u += 7 {
			for v := graph.NodeID(0); v < 60; v += 5 {
				got, err := pool.SimRank(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if want := x.SimRank(u, v, nil); got != want {
					t.Fatalf("cache=%d: disk s(%d,%d)=%v, memory %v", cacheBytes, u, v, got, want)
				}
			}
			wantVec := x.SingleSource(u, ss, nil)
			gotVec, err := pool.SingleSource(u, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := range wantVec {
				if gotVec[v] != wantVec[v] {
					t.Fatalf("cache=%d: disk single-source differs at %d", cacheBytes, v)
				}
			}
			gotTop, err := pool.TopK(u, 7)
			if err != nil {
				t.Fatal(err)
			}
			wantTop := x.TopK(u, 7, ss)
			if len(gotTop) != len(wantTop) {
				t.Fatalf("TopK length %d vs %d", len(gotTop), len(wantTop))
			}
			for i := range gotTop {
				if gotTop[i] != wantTop[i] {
					t.Fatalf("TopK entry %d differs", i)
				}
			}
			gotSrc, err := pool.SourceTop(u, 5)
			if err != nil {
				t.Fatal(err)
			}
			wantSrc := SelectTop(wantVec, 5, -1)
			if len(gotSrc) != len(wantSrc) {
				t.Fatalf("SourceTop length %d vs %d", len(gotSrc), len(wantSrc))
			}
			for i := range gotSrc {
				if gotSrc[i] != wantSrc[i] {
					t.Fatalf("SourceTop entry %d differs", i)
				}
			}
		}
		us := []graph.NodeID{3, 1, 4, 1, 5, 9, 2, 6}
		for _, workers := range []int{1, 4} {
			rows, err := d.SingleSourceBatch(nil, us, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range us {
				want := x.SingleSource(u, ss, nil)
				for v := range want {
					if rows[i][v] != want[v] {
						t.Fatalf("batch(workers=%d) row %d differs at %d", workers, i, v)
					}
				}
			}
		}
		d.Close()
	}
}

// Cached answers must equal uncached answers, and re-queries must hit.
func TestDiskCacheHitEquivalence(t *testing.T) {
	g := randomGraph(50, 300, 33)
	_, path := saveTestIndex(t, g, &Options{Eps: 0.08, Seed: 33})
	plain, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cached, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	cached.EnableCache(4 << 20)
	ps, cs := plain.NewScratchPool(), cached.NewScratchPool()
	for pass := 0; pass < 2; pass++ {
		for u := graph.NodeID(0); u < 50; u += 3 {
			for v := graph.NodeID(0); v < 50; v += 7 {
				want, err := ps.SimRank(u, v)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cs.SimRank(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("pass %d: cached s(%d,%d)=%v, uncached %v", pass, u, v, got, want)
				}
			}
		}
	}
	st := cached.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits after repeated queries: %+v", st)
	}
	if st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("cache empty after queries: %+v", st)
	}
	if plainSt := plain.CacheStats(); plainSt != (CacheStats{}) {
		t.Fatalf("uncached index reports cache activity: %+v", plainSt)
	}
}

// Concurrent mixed queries through one shared pool must match memory
// exactly (run under -race in CI).
func TestDiskScratchPoolConcurrent(t *testing.T) {
	g := randomGraph(50, 300, 35)
	x, path := saveTestIndex(t, g, &Options{Eps: 0.08, Seed: 35, Enhance: true})
	d, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.EnableCache(1 << 20)
	pool := d.NewScratchPool()
	ss := x.NewSourceScratch()
	wantPair := x.SimRank(3, 9, nil)
	wantVec := append([]float64(nil), x.SingleSource(7, ss, nil)...)
	wantTop := x.TopK(5, 6, ss)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got, err := pool.SimRank(3, 9)
				if err != nil || got != wantPair {
					errs <- "disk SimRank drift under concurrency"
					return
				}
				vec, err := pool.SingleSource(7, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				for v := range wantVec {
					if vec[v] != wantVec[v] {
						errs <- "disk SingleSource drift under concurrency"
						return
					}
				}
				top, err := pool.TopK(5, 6)
				if err != nil || len(top) != len(wantTop) {
					errs <- "disk TopK drift under concurrency"
					return
				}
				for j := range top {
					if top[j] != wantTop[j] {
						errs <- "disk TopK entry drift under concurrency"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

// marksRegionOffset returns the byte offset of the marks array in a
// serialized index with n nodes (see the format comment in serialize.go).
func marksRegionOffset(n int) int {
	return 92 + 8*n + (n+7)/8 + 2*8*(n+1)
}

// corruptFirstMark returns a copy of data with the first mark value
// overwritten by raw (little-endian uint32).
func corruptFirstMark(t *testing.T, data []byte, n int, raw uint32) []byte {
	t.Helper()
	off := marksRegionOffset(n)
	if off+4 > len(data) {
		t.Fatalf("marks offset %d beyond file size %d", off, len(data))
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], raw)
	return out
}

// A SLIX file whose marks point outside the owning node's entry range
// must be rejected at load, not panic at query time.
func TestReadMetaRejectsOutOfRangeMarks(t *testing.T) {
	g := randomGraph(30, 200, 37)
	x, err := Build(g, &Options{Eps: 0.08, Seed: 37, Enhance: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.marks) == 0 {
		t.Skip("build produced no marks; cannot exercise validation")
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := ReadIndex(bytes.NewReader(valid), g); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	n := g.NumNodes()
	for _, raw := range []uint32{0xffffffff /* -1 */, 0x7fffffff /* >> entry count */} {
		bad := corruptFirstMark(t, valid, n, raw)
		if _, err := ReadIndex(bytes.NewReader(bad), g); err == nil {
			t.Fatalf("mark %#x accepted by ReadIndex", raw)
		}
		path := t.TempDir() + "/bad.slix"
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDiskIndex(path, g); err == nil {
			t.Fatalf("mark %#x accepted by OpenDiskIndex", raw)
		}
	}
}
