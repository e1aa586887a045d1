package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"slices"
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

// Disk answers — single-pair, single-source, top-k, source-top,
// fragment, batch — must be byte-identical to the in-memory index, over
// positioned reads and over a mapping.
func TestDiskServeMatchesMemory(t *testing.T) {
	g := randomGraph(60, 360, 31)
	x, path := saveTestIndex(t, g, &Options{Eps: 0.08, Seed: 31, Enhance: true})
	modes := []string{"readat"}
	if MmapSupported() {
		modes = append(modes, "mmap")
	}
	for _, mode := range modes {
		open := OpenDiskIndex
		if mode == "mmap" {
			open = OpenDiskIndexMmap
		}
		d, err := open(path, g)
		if err != nil {
			t.Fatal(err)
		}
		pool, mem := d.NewScratchPool(), x.NewScratchPool()
		for u := graph.NodeID(0); u < 60; u += 7 {
			for v := graph.NodeID(0); v < 60; v += 5 {
				got, err := pool.SimRank(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if want := must(mem.SimRank(u, v)); got != want {
					t.Fatalf("%s: disk s(%d,%d)=%v, memory %v", mode, u, v, got, want)
				}
			}
			wantVec := must(mem.SingleSource(u, nil))
			gotVec, err := pool.SingleSource(u, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotVec, wantVec) {
				t.Fatalf("%s: disk single-source of %d differs", mode, u)
			}
			gotNaive, err := pool.SingleSourceNaive(u, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotNaive, must(mem.SingleSourceNaive(u, nil))) {
				t.Fatalf("%s: disk Alg-3 loop of %d differs", mode, u)
			}
			gotTop, err := pool.TopK(u, 7)
			if err != nil {
				t.Fatal(err)
			}
			wantTop := must(mem.TopK(u, 7))
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
			gotK, gotV, gotD, err := pool.Fragment(u)
			if err != nil {
				t.Fatal(err)
			}
			wantK, wantV, wantD := x.FragmentOf(u, nil)
			if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) || !slices.Equal(gotD, wantD) {
				t.Fatalf("%s: Fragment(%d) differs", mode, u)
			}
		}
		us := []graph.NodeID{3, 1, 4, 1, 5, 9, 2, 6}
		for _, workers := range []int{1, 4} {
			rows, err := pool.SingleSourceBatch(nil, us, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range us {
				want := must(mem.SingleSource(u, nil))
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
	pool, mem := d.NewScratchPool(), x.NewScratchPool()
	wantPair := must(mem.SimRank(3, 9))
	wantVec := must(mem.SingleSource(7, nil))
	wantTop := must(mem.TopK(5, 6))
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
	return headerSize + 8*n + (n+7)/8 + 2*8*(n+1)
}

// corruptFirstMark returns a copy of data with the first mark value
// overwritten by raw (little-endian uint32) and the checksums resealed.
func corruptFirstMark(t *testing.T, data []byte, n int, raw uint32) []byte {
	t.Helper()
	off := marksRegionOffset(n)
	if off+4 > len(data) {
		t.Fatalf("marks offset %d beyond file size %d", off, len(data))
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], raw)
	// Reseal the checksums, so the marks bounds check rather than the
	// metadata checksum is what rejects the file.
	return resealSLIX(out)
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
