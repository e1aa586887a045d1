package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// resealSLIX returns a copy of a SLIX v3 stream with its four section
// checksums recomputed from the layout its header counts imply, so a
// test can damage a field behind the checksums and reach the check that
// guards it. Sections the data is too short for keep their old sums.
func resealSLIX(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < headerSize {
		return out
	}
	le := binary.LittleEndian
	sum := func(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
	le.PutUint32(out[92:], sum(out[:headerFields]))
	n := int64(le.Uint32(out[8:]))
	numEntries, numMarks := le.Uint64(out[76:]), le.Uint64(out[84:])
	if numEntries > 1<<40 || numMarks > 1<<40 {
		return out
	}
	meta := metaSize(int(n), int64(numMarks))
	keysOff := meta + alignPad(meta)
	valsOff := keysOff + 4*int64(numEntries)
	end := valsOff + 4*int64(numEntries)
	if end > int64(len(out)) {
		return out
	}
	le.PutUint32(out[96:], sum(out[headerSize:keysOff]))
	le.PutUint32(out[100:], sum(out[keysOff:valsOff]))
	le.PutUint32(out[104:], sum(out[valsOff:end]))
	return out
}

// corruptSLIX enumerates corruptions that every loader rejects. The
// damage behind the checksums is resealed, so those cases reach the
// structural or entry check that guards the field.
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
	cases["inflated numEntries"] = resealSLIX(inflated)
	// Parameters whose key split addresses fewer nodes than the header
	// claims: at c = 1−1e-7 and θ = 1e-6 a stored step needs 29 bits,
	// which leaves 3 bits for the 20 nodes.
	narrow := append([]byte(nil), valid...)
	le.PutUint64(narrow[20:], math.Float64bits(1-1e-7))
	le.PutUint64(narrow[44:], math.Float64bits(1e-6))
	cases["more nodes than the key addresses"] = resealSLIX(narrow)
	// Misaligned section: a non-zero byte in the alignment padding means
	// writer and reader disagree about where keys start.
	n := int(le.Uint32(valid[8:]))
	numMarks := int64(le.Uint64(valid[84:]))
	meta := metaSize(n, numMarks)
	if pad := alignPad(meta); pad > 0 {
		bad := append([]byte(nil), valid...)
		bad[meta] = 0x01
		cases["non-zero alignment padding"] = resealSLIX(bad)
	} else {
		t.Fatalf("test graph produced pad 0; pick sizes with a non-empty alignment gap")
	}
	// Entries no build writes. Each would panic or mislead a query
	// (TopK indexes d̃ and the score vectors by the stored node), so the
	// open pass must refuse them.
	keysOff := meta + alignPad(meta)
	valsOff := keysOff + 4*int64(le.Uint64(valid[76:]))
	var prm resolved
	prm.c = math.Float64frombits(le.Uint64(valid[20:]))
	prm.sqrtC = math.Sqrt(prm.c)
	prm.theta = math.Float64frombits(le.Uint64(valid[44:]))
	if err := prm.keyLayout(n); err != nil {
		t.Fatal(err)
	}
	entry := func(name string, off int64, word uint32) {
		bad := append([]byte(nil), valid...)
		le.PutUint32(bad[off:], word)
		cases[name] = resealSLIX(bad)
	}
	first := le.Uint32(valid[keysOff:])
	mask := uint32(1)<<prm.nodeBits - 1
	entry("entry names a node past n", keysOff, first&^mask|1000)
	entry("entry step past maxStoredStep", keysOff, uint32(prm.maxStep+1)<<prm.nodeBits|first&mask)
	entry("entry keys out of order", keysOff, le.Uint32(valid[keysOff+4:]))
	entry("entry value zero", valsOff, 0)
	entry("entry value above one", valsOff, math.Float32bits(1.5))
	entry("entry value NaN", valsOff, math.Float32bits(float32(math.NaN())))
	return cases
}

// TestLoadersRejectCorruptFiles: every loader — ReadIndex, the ReadAt
// disk loader and the mmap loader — rejects every corrupt input with an
// error, not a panic or a fault from mapping a region past EOF, and
// every rejection but a foreign magic or version wraps ErrCorrupt.
func TestLoadersRejectCorruptFiles(t *testing.T) {
	valid := buildSerialized(t)
	dir := t.TempDir()
	for name, data := range corruptSLIX(t, valid) {
		path := filepath.Join(dir, "bad.slix")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt := name != "bad magic" && name != "bad version"
		check := func(loader string, err error) {
			t.Helper()
			if err == nil {
				t.Errorf("%s: %s accepted corrupt file", name, loader)
			} else if wantCorrupt && !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %s error %q does not wrap ErrCorrupt", name, loader, err)
			}
		}
		_, err := ReadIndex(bytes.NewReader(data), nil)
		check("ReadIndex", err)
		d, err := OpenDiskIndex(path, nil)
		if err == nil {
			d.Close()
		}
		check("OpenDiskIndex", err)
		if MmapSupported() {
			d, err = OpenDiskIndexMmap(path, nil)
			if err == nil {
				d.Close()
			}
			check("OpenDiskIndexMmap", err)
		}
	}
}

// TestLoadersRejectEveryBitFlip flips the low bit of every byte of a
// 4 KB index file (built with Enhance, so every section is non-empty)
// in turn: each flip must be rejected by all three loaders, and every
// rejection except of the magic and version wraps ErrCorrupt. The
// section checksums are what catch a flipped value byte, which no
// structural check can see.
func TestLoadersRejectEveryBitFlip(t *testing.T) {
	x, err := Build(randomGraph(10, 30, 1), &Options{Eps: 0.3, Seed: 1, Enhance: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if n := binary.LittleEndian.Uint64(valid[84:]); n == 0 {
		t.Fatal("test index has no marks")
	}
	path := filepath.Join(t.TempDir(), "flip.slix")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := append([]byte(nil), valid...)
	for pos := range valid {
		// Flip the byte in the buffer and in the file, and restore both
		// after the three opens.
		data[pos] ^= 0x01
		if _, err := f.WriteAt(data[pos:pos+1], int64(pos)); err != nil {
			t.Fatal(err)
		}
		check := func(loader string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("byte %d flipped: %s accepted the file", pos, loader)
			}
			if pos >= 8 && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d flipped: %s error %q does not wrap ErrCorrupt", pos, loader, err)
			}
		}
		_, err := ReadIndex(bytes.NewReader(data), nil)
		check("ReadIndex", err)
		d, err := OpenDiskIndex(path, nil)
		if err == nil {
			d.Close()
		}
		check("OpenDiskIndex", err)
		if MmapSupported() {
			d, err = OpenDiskIndexMmap(path, nil)
			if err == nil {
				d.Close()
			}
			check("OpenDiskIndexMmap", err)
		}
		data[pos] ^= 0x01
		if _, err := f.WriteAt(data[pos:pos+1], int64(pos)); err != nil {
			t.Fatal(err)
		}
	}
}

// A v2 file fails every loader with an error naming its version: there
// is no v2 reader, the index is rebuilt. (A durable snapshot's embedded
// index goes through ReadIndex, so it fails the same way.)
func TestLoadersNameOldVersion(t *testing.T) {
	data := buildSerialized(t)
	binary.LittleEndian.PutUint32(data[4:], 2)
	path := filepath.Join(t.TempDir(), "v2.slix")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errR := ReadIndex(bytes.NewReader(data), nil)
	_, errD := OpenDiskIndex(path, nil)
	_, errM := OpenDiskIndexMmap(path, nil)
	for _, err := range []error{errR, errD, errM} {
		if err == nil || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("v2 file: err = %v, want one naming version 2", err)
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

// FuzzDiskOpenParity: for arbitrary bytes on disk, ReadIndex, the
// ReadAt loader and the mmap loader must agree on accept vs reject, and
// none may panic (or fault) on any input. Each input is also tried with
// its checksums resealed, so mutations reach the structural and entry
// checks behind them.
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
	badEntry := append([]byte(nil), valid...)
	badEntry[len(valid)-1] ^= 0x40 // the last value's exponent: above 1
	f.Add(resealSLIX(badEntry))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !MmapSupported() {
			t.Skip("mmap not supported on this platform")
		}
		dir := t.TempDir()
		for i, b := range [][]byte{data, resealSLIX(data)} {
			path := filepath.Join(dir, fmt.Sprintf("fuzz%d.slix", i))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			_, errI := ReadIndex(bytes.NewReader(b), nil)
			dr, errR := OpenDiskIndex(path, nil)
			if errR == nil {
				dr.Close()
			}
			dm, errM := OpenDiskIndexMmap(path, nil)
			if errM == nil {
				dm.Close()
			}
			if (errR == nil) != (errM == nil) || (errI == nil) != (errR == nil) {
				t.Fatalf("loader disagreement: ReadIndex err=%v, ReadAt err=%v, mmap err=%v", errI, errR, errM)
			}
		}
	})
}
