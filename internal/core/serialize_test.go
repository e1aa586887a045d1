package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sling/internal/atomicio"
)

// limitWriter accepts up to limit bytes and then fails, reporting the
// partial count like a filesystem hitting ENOSPC does.
type limitWriter struct {
	w     io.Writer
	limit int64
	n     int64
}

var errWriterFull = errors.New("writer full")

func (lw *limitWriter) Write(p []byte) (int, error) {
	if lw.n >= lw.limit {
		return 0, errWriterFull
	}
	if int64(len(p)) > lw.limit-lw.n {
		p = p[:lw.limit-lw.n]
		n, err := lw.w.Write(p)
		lw.n += int64(n)
		if err != nil {
			return n, err
		}
		return n, errWriterFull
	}
	n, err := lw.w.Write(p)
	lw.n += int64(n)
	return n, err
}

// TestWriteToCountsBytesAcceptedDownstream pins the io.WriterTo
// contract: the returned count is the number of bytes the destination
// actually accepted, even when a write fails mid-stream. A count taken
// above the internal buffer would report the full buffered size here.
func TestWriteToCountsBytesAcceptedDownstream(t *testing.T) {
	g := randomGraph(20, 100, 1)
	x, err := Build(g, &Options{Eps: 0.1, Seed: 1, Enhance: true})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	wantTotal, err := x.WriteTo(&full)
	if err != nil {
		t.Fatal(err)
	}
	if wantTotal != int64(full.Len()) {
		t.Fatalf("success count %d, destination accepted %d", wantTotal, full.Len())
	}
	for _, limit := range []int64{0, 1, 37, 92, wantTotal / 2, wantTotal - 1} {
		var sink bytes.Buffer
		lw := &limitWriter{w: &sink, limit: limit}
		n, err := x.WriteTo(lw)
		if err == nil {
			t.Fatalf("limit %d: WriteTo succeeded on a failing writer", limit)
		}
		if n != int64(sink.Len()) {
			t.Fatalf("limit %d: WriteTo reported %d bytes, destination accepted %d", limit, n, sink.Len())
		}
		if n != limit {
			t.Fatalf("limit %d: destination accepted %d bytes", limit, n)
		}
	}
}

// TestSaveFileAtomicReplace: overwriting an existing index goes through
// a temp sibling, so the destination is only ever the old complete file
// or the new complete file, and no temp litter survives success.
func TestSaveFileAtomicReplace(t *testing.T) {
	g := randomGraph(20, 100, 1)
	a, err := Build(g, &Options{Eps: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, &Options{Eps: 0.1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.slix")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.prm.seed != 99 {
		t.Fatalf("loaded index has seed %d, want the replacement (99)", got.prm.seed)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestSaveFailureKeepsOldIndexLoadable replays SaveFile's exact write
// path (WriteTo through atomicio.WriteFile) with a destination that
// dies mid-stream: the previously saved index must stay loadable and
// bit-identical, with no temp litter. Before SaveFile went through the
// temp-and-rename idiom, this left a truncated file at the final path.
func TestSaveFailureKeepsOldIndexLoadable(t *testing.T) {
	g := randomGraph(20, 100, 1)
	x, err := Build(g, &Options{Eps: 0.1, Seed: 1, Enhance: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.slix")
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = atomicio.WriteFile(path, func(w io.Writer) error {
		_, werr := x.WriteTo(&limitWriter{w: w, limit: 100})
		return werr
	})
	if !errors.Is(err, errWriterFull) {
		t.Fatalf("short write reported %v, want %v", err, errWriterFull)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("old index gone after failed save: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("old index modified by failed save")
	}
	if _, err := LoadFile(path, g); err != nil {
		t.Fatalf("old index no longer loadable: %v", err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// corruptSLIX enumerates corruptions that the ReadAt loader rejects;
// the mmap loader must reject every one of them too (never map, never
// fault).
func corruptSLIX(t *testing.T, valid []byte) map[string][]byte {
	t.Helper()
	le := binary.LittleEndian
	cases := map[string][]byte{
		"empty":             {},
		"bad magic":         append([]byte("XILS"), valid[4:]...),
		"truncated header":  valid[:40],
		"truncated meta":    valid[:200],
		"truncated entries": valid[:len(valid)-8],
		"ragged entries":    valid[:len(valid)-3],
		"trailing garbage":  append(append([]byte(nil), valid...), 0xAB),
	}
	badVersion := append([]byte(nil), valid...)
	le.PutUint32(badVersion[4:], 999)
	cases["bad version"] = badVersion
	// Inflate numEntries: the header then claims an entries region larger
	// than the file, which both the offset-table check and the file-size
	// cross-check catch.
	inflated := append([]byte(nil), valid...)
	le.PutUint64(inflated[76:], le.Uint64(inflated[76:])+1)
	cases["inflated numEntries"] = inflated
	// Misaligned section: a non-zero byte in the alignment padding means
	// writer and reader disagree about where keys start.
	n := int(le.Uint32(valid[8:]))
	numMarks := int64(le.Uint64(valid[84:]))
	meta := metaSize(n, numMarks)
	if pad := alignPad(meta); pad > 0 {
		bad := append([]byte(nil), valid...)
		bad[meta] = 0x01
		cases["non-zero alignment padding"] = bad
	} else {
		t.Fatalf("test graph produced pad 0; pick sizes with a non-empty alignment gap")
	}
	return cases
}

// TestMmapLoaderRejectsCorruptFiles: every corrupt input the ReadAt
// loader rejects is also rejected by the mmap loader — with an error,
// not a panic or a fault from mapping a region past EOF.
func TestMmapLoaderRejectsCorruptFiles(t *testing.T) {
	valid := buildSerialized(t)
	dir := t.TempDir()
	for name, data := range corruptSLIX(t, valid) {
		path := filepath.Join(dir, "bad.slix")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDiskIndex(path, nil); err == nil {
			t.Errorf("%s: ReadAt loader accepted corrupt file", name)
		}
		d, err := OpenDiskIndexMmap(path, nil)
		if err == nil {
			d.Close()
			t.Errorf("%s: mmap loader accepted corrupt file", name)
		}
	}
}

// TestMmapMatchesReadAt: the mapped views and the positioned reads are
// two decodings of the same bytes, so every query must agree bitwise.
func TestMmapMatchesReadAt(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap not supported on this platform")
	}
	g := randomGraph(40, 200, 7)
	_, path := saveTestIndex(t, g, &Options{Eps: 0.1, Seed: 7, Enhance: true})
	dr, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Close()
	dm, err := OpenDiskIndexMmap(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	if !dm.Mapped() || dr.Mapped() {
		t.Fatalf("Mapped() = %v/%v, want true for mmap and false for ReadAt", dm.Mapped(), dr.Mapped())
	}
	pr, pm := dr.NewScratchPool(), dm.NewScratchPool()
	sr, sm := dr.NewScratch(), dm.NewScratch()
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v += 3 {
			a, err := pr.simRank(int32(u), int32(v), sr)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pm.simRank(int32(u), int32(v), sm)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("SimRank(%d,%d): ReadAt %v, mmap %v", u, v, a, b)
			}
		}
	}
}

// TestMmapFetchZeroAllocs pins the point of the mapped mode: with warm
// caller-held scratch (no sync.Pool in the measured loop), a
// single-pair query performs zero heap allocations — fetch is pure
// slicing into the mapped views.
func TestMmapFetchZeroAllocs(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap not supported on this platform")
	}
	g := randomGraph(40, 200, 7)
	_, path := saveTestIndex(t, g, &Options{Eps: 0.1, Seed: 7, Enhance: true})
	d, err := OpenDiskIndexMmap(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p, s := d.NewScratchPool(), d.NewScratch()
	if _, err := p.simRank(3, 17, s); err != nil { // warm scratch capacities
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.simRank(3, 17, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("mapped SimRank allocates %v times per op, want 0", allocs)
	}
}

// FuzzDiskOpenParity: for arbitrary bytes on disk, the ReadAt loader
// and the mmap loader must agree on accept vs reject, and neither may
// panic (or fault) on any input.
func FuzzDiskOpenParity(f *testing.F) {
	valid := buildSerialized(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SLIX"))
	f.Add(valid[:40])
	f.Add(valid[:len(valid)-8])
	f.Add(valid[:len(valid)-3])
	corrupted := append([]byte(nil), valid...)
	corrupted[80] ^= 0xff
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !MmapSupported() {
			t.Skip("mmap not supported on this platform")
		}
		path := filepath.Join(t.TempDir(), "fuzz.slix")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		dr, errR := OpenDiskIndex(path, nil)
		if errR == nil {
			dr.Close()
		}
		dm, errM := OpenDiskIndexMmap(path, nil)
		if errM == nil {
			dm.Close()
		}
		if (errR == nil) != (errM == nil) {
			t.Fatalf("loader disagreement: ReadAt err=%v, mmap err=%v", errR, errM)
		}
	})
}
