package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"

	"sling/internal/atomicio"
	"sling/internal/graph"
	"sling/internal/mmap"
)

// Index file format, SLIX version 3 (all little-endian):
//
//	magic "SLIX" | version u32 | n u32 | flags u32 | pad u32
//	c, eps, epsD, theta, delta, gamma f64 | seed u64
//	numEntries u64 | numMarks u64
//	crcHeader, crcMeta, crcKeys, crcVals u32    ← CRC-32C (Castagnoli)
//	d        n × f64
//	reduced  ⌈n/8⌉ bytes (bitmap)
//	off      (n+1) × i64
//	markOff  (n+1) × i64
//	marks    numMarks × i32
//	align    0–3 zero bytes so the keys region starts 4-byte aligned
//	keys     numEntries × u32    ← step<<nodeBits | node, columnar
//	vals     numEntries × f32    ← h̃ rounded to float32, columnar
//
// crcHeader covers the 92 header bytes before the checksums, crcMeta the
// d̃ through align regions, and crcKeys and crcVals their columns.
// nodeBits is not stored: it is derived from c and θ (keyLayout).
//
// Everything before the entries regions is O(n) and loaded eagerly; the
// keys/vals regions support the paper's Section 5.4 disk-resident mode:
// a single-pair query reads two contiguous node ranges per region with
// positioned reads, a constant I/O cost since each H(v) is O(1/ε)
// bytes. The columns are fixed-width and 4-byte aligned, so a mapped
// file can be viewed directly as []uint32 / []float32.
//
// Every loader makes one sequential pass over the whole file at open: it
// verifies the four checksums and checks every entry (node < n, step ≤
// maxStoredStep, keys strictly ascending within a node, value in
// (0, 1]), so no query can be steered out of bounds by the file.
const (
	indexMagic   = "SLIX"
	indexVersion = 3

	// headerFields is the size of the checksummed header fields and
	// headerSize the whole header, checksums included.
	headerFields = 92
	headerSize   = headerFields + 16

	flagEnhance        = 1 << 0
	flagSpaceReduction = 1 << 1
	flagBasicEstimator = 1 << 2
)

// readBuffer sizes the loaders' sequential reads.
const readBuffer = 64 << 10

// castagnoli is the CRC-32C table of the section checksums, the
// polynomial the WAL and snapshots use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every error ReadIndex, LoadFile,
// OpenDiskIndex and OpenDiskIndexMmap return for a damaged SLIX stream:
// a checksum mismatch, a truncated or inconsistent section, or an entry
// no build could have written. A wrong magic or version is not
// corruption but a file this build does not read.
var ErrCorrupt = errors.New("core: corrupt SLIX index")

func corrupt(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, a...)...)
}

func (x *Index) flags() uint32 {
	var f uint32
	if x.prm.enhance {
		f |= flagEnhance
	}
	if x.prm.spaceReduction {
		f |= flagSpaceReduction
	}
	if x.prm.basicEstimator {
		f |= flagBasicEstimator
	}
	return f
}

// alignPad returns the number of zero bytes between the marks region
// (ending at off) and the keys region, sized so keys starts 4-byte
// aligned. It is a pure function of the header counts, so reader and
// writer always agree.
func alignPad(off int64) int64 { return (4 - off%4) % 4 }

// metaSize returns the byte offset where the alignment padding starts:
// header plus every O(n) metadata region.
func metaSize(n int, numMarks int64) int64 {
	return headerSize + int64(8*n) + int64((n+7)/8) + 2*int64(8*(n+1)) + 4*numMarks
}

// WriteTo serializes the index. It implements io.WriterTo. The
// metadata, key and value sections are each encoded twice: once into a
// CRC-32C for the header, then into w. The returned count is the number
// of bytes the underlying writer actually accepted: counting sits
// beneath the internal buffer, so a failed flush cannot over-report
// buffered-but-unwritten bytes.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	sections := [3]func(io.Writer){x.writeMeta, x.writeKeys, x.writeVals}
	var sums [3]uint32
	for i, write := range sections {
		h := crc32.New(castagnoli)
		write(h)
		sums[i] = h.Sum32()
	}
	cw := &countWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<20)
	_, _ = bw.Write(x.header(sums))
	for _, write := range sections {
		write(bw)
	}
	// bufio keeps the first write error and reports it here.
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// header encodes the header fields followed by their own CRC-32C and
// the three section sums.
func (x *Index) header(sums [3]uint32) []byte {
	le := binary.LittleEndian
	hdr := make([]byte, headerSize)
	copy(hdr, indexMagic)
	le.PutUint32(hdr[4:], indexVersion)
	le.PutUint32(hdr[8:], uint32(len(x.d)))
	le.PutUint32(hdr[12:], x.flags())
	le.PutUint32(hdr[16:], 0)
	le.PutUint64(hdr[20:], math.Float64bits(x.prm.c))
	le.PutUint64(hdr[28:], math.Float64bits(x.prm.eps))
	le.PutUint64(hdr[36:], math.Float64bits(x.prm.epsD))
	le.PutUint64(hdr[44:], math.Float64bits(x.prm.theta))
	le.PutUint64(hdr[52:], math.Float64bits(x.prm.delta))
	le.PutUint64(hdr[60:], math.Float64bits(x.prm.gamma))
	le.PutUint64(hdr[68:], x.prm.seed)
	le.PutUint64(hdr[76:], uint64(len(x.keys)))
	le.PutUint64(hdr[84:], uint64(len(x.marks)))
	le.PutUint32(hdr[92:], crc32.Checksum(hdr[:headerFields], castagnoli))
	for i, sum := range sums {
		le.PutUint32(hdr[96+4*i:], sum)
	}
	return hdr
}

// The section writers ignore per-write errors: they write to a hash,
// which never fails, or to a bufio.Writer, which keeps the first error,
// drops every later write, and returns it from Flush.

// writeMeta encodes the O(n) metadata and the alignment padding.
func (x *Index) writeMeta(w io.Writer) {
	le := binary.LittleEndian
	putWords(w, x.d, func(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) })
	bitmap := make([]byte, (len(x.d)+7)/8)
	for v, r := range x.reduced {
		if r {
			bitmap[v/8] |= 1 << (v % 8)
		}
	}
	_, _ = w.Write(bitmap)
	putWords(w, x.off, func(b []byte, o int64) []byte { return le.AppendUint64(b, uint64(o)) })
	putWords(w, x.markOff, func(b []byte, o int64) []byte { return le.AppendUint64(b, uint64(o)) })
	putWords(w, x.marks, func(b []byte, m int32) []byte { return le.AppendUint32(b, uint32(m)) })
	var zeros [4]byte
	_, _ = w.Write(zeros[:alignPad(metaSize(len(x.d), int64(len(x.marks))))])
}

// writeKeys encodes the key column.
func (x *Index) writeKeys(w io.Writer) {
	putWords(w, x.keys, func(b []byte, k uint32) []byte { return binary.LittleEndian.AppendUint32(b, k) })
}

// writeVals encodes the value column.
func (x *Index) writeVals(w io.Writer) {
	putWords(w, x.vals, func(b []byte, v float32) []byte {
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	})
}

// putWords encodes xs with put into a chunk buffer and hands each full
// chunk to w: one append per word rather than one Write call.
func putWords[T any](w io.Writer, xs []T, put func([]byte, T) []byte) {
	buf := make([]byte, 0, 64<<10)
	for _, v := range xs {
		buf = put(buf, v)
		if len(buf) > cap(buf)-8 {
			_, _ = w.Write(buf)
			buf = buf[:0]
		}
	}
	_, _ = w.Write(buf)
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// SaveFile writes the index to path atomically: the bytes are
// assembled under a temporary sibling, fsynced, and renamed into
// place, so a crash mid-write can never leave a truncated SLIX file at
// the final path.
func (x *Index) SaveFile(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := x.WriteTo(w)
		return err
	})
}

// fileHeader is what readMeta learns besides the metadata: where the
// keys region starts, the entry count, and the two column checksums.
type fileHeader struct {
	entriesOff int64
	numEntries int64
	crcKeys    uint32
	crcVals    uint32
}

// crcReader hashes everything read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// readMeta parses and verifies everything before the entries regions
// into a skeleton Index (keys/vals empty), consuming the alignment
// padding: the magic and version, the header checksum, the parameters,
// then the metadata against its checksum, then its structure.
func readMeta(r io.Reader, g *graph.Graph) (*Index, fileHeader, error) {
	var fh fileHeader
	le := binary.LittleEndian
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fh, corrupt("reading index header: %w", err)
	}
	if string(hdr[:4]) != indexMagic {
		return nil, fh, errors.New("core: bad magic; not a SLIX file")
	}
	if v := le.Uint32(hdr[4:]); v != indexVersion {
		return nil, fh, fmt.Errorf("core: unsupported SLIX version %d; this build reads version %d only, so rebuild the index", v, indexVersion)
	}
	if crc32.Checksum(hdr[:headerFields], castagnoli) != le.Uint32(hdr[92:]) {
		return nil, fh, corrupt("header checksum mismatch")
	}
	n := int(le.Uint32(hdr[8:]))
	if g != nil && g.NumNodes() != n {
		return nil, fh, fmt.Errorf("core: index built for n=%d nodes, graph has %d", n, g.NumNodes())
	}
	flags := le.Uint32(hdr[12:])
	var prm resolved
	prm.c = math.Float64frombits(le.Uint64(hdr[20:]))
	prm.eps = math.Float64frombits(le.Uint64(hdr[28:]))
	prm.epsD = math.Float64frombits(le.Uint64(hdr[36:]))
	prm.theta = math.Float64frombits(le.Uint64(hdr[44:]))
	prm.delta = math.Float64frombits(le.Uint64(hdr[52:]))
	prm.gamma = math.Float64frombits(le.Uint64(hdr[60:]))
	prm.seed = le.Uint64(hdr[68:])
	prm.sqrtC = math.Sqrt(prm.c)
	prm.workers = 1
	prm.enhance = flags&flagEnhance != 0
	prm.spaceReduction = flags&flagSpaceReduction != 0
	prm.basicEstimator = flags&flagBasicEstimator != 0
	if !(prm.c > 0 && prm.c < 1) || !(prm.theta > 0 && prm.theta < 1) {
		return nil, fh, corrupt("parameters c=%v theta=%v out of (0,1)", prm.c, prm.theta)
	}
	if err := prm.keyLayout(n); err != nil {
		return nil, fh, corrupt("%w", err)
	}
	numEntries := int64(le.Uint64(hdr[76:]))
	numMarks := int64(le.Uint64(hdr[84:]))
	if numEntries < 0 || numMarks < 0 {
		return nil, fh, corrupt("negative sizes in index header")
	}
	fh.numEntries = numEntries
	fh.crcKeys = le.Uint32(hdr[100:])
	fh.crcVals = le.Uint32(hdr[104:])
	x := &Index{g: g, prm: prm}

	// All counted allocations go through readChunkedU64/U32, which grow
	// with the bytes actually read, so a header claiming a huge size
	// fails at EOF instead of exhausting memory.
	cr := &crcReader{r: r}
	dBits, err := readChunkedU64(cr, int64(n), "d")
	if err != nil {
		return nil, fh, err
	}
	bitmap := make([]byte, (n+7)/8)
	if _, err := io.ReadFull(cr, bitmap); err != nil {
		return nil, fh, corrupt("reading bitmap: %w", err)
	}
	offBits, err := readChunkedU64(cr, int64(n)+1, "offsets")
	if err != nil {
		return nil, fh, err
	}
	markBits, err := readChunkedU64(cr, int64(n)+1, "mark offsets")
	if err != nil {
		return nil, fh, err
	}
	marks32, err := readChunkedU32(cr, numMarks, "marks")
	if err != nil {
		return nil, fh, err
	}
	meta := metaSize(n, numMarks)
	var pad [4]byte
	if _, err := io.ReadFull(cr, pad[:alignPad(meta)]); err != nil {
		return nil, fh, corrupt("reading alignment padding: %w", err)
	}
	if cr.crc != le.Uint32(hdr[96:]) {
		return nil, fh, corrupt("metadata checksum mismatch")
	}
	if pad != [4]byte{} {
		return nil, fh, corrupt("non-zero alignment padding")
	}
	fh.entriesOff = meta + alignPad(meta)

	x.d = make([]float64, n)
	for i, b := range dBits {
		x.d[i] = math.Float64frombits(b)
	}
	x.reduced = make([]bool, n)
	for v := range x.reduced {
		x.reduced[v] = bitmap[v/8]&(1<<(v%8)) != 0
	}
	x.off = make([]int64, n+1)
	for i, b := range offBits {
		x.off[i] = int64(b)
	}
	if x.off[0] != 0 || x.off[n] != numEntries {
		return nil, fh, corrupt("offset table does not span the %d entries", numEntries)
	}
	for v := 0; v < n; v++ {
		if x.off[v] > x.off[v+1] {
			return nil, fh, corrupt("non-monotone offset table")
		}
	}
	x.markOff = make([]int64, n+1)
	for i, b := range markBits {
		x.markOff[i] = int64(b)
	}
	if x.markOff[0] != 0 || x.markOff[n] != numMarks {
		return nil, fh, corrupt("mark offset table does not span the %d marks", numMarks)
	}
	for v := 0; v < n; v++ {
		if x.markOff[v] > x.markOff[v+1] {
			return nil, fh, corrupt("non-monotone mark offset table")
		}
	}
	x.marks = make([]int32, numMarks)
	for i, b := range marks32 {
		x.marks[i] = int32(b)
	}
	// Marks are positions into the owning node's stored entry range; an
	// out-of-range mark would panic the Section 5.3 expansion at query
	// time, so reject it at load.
	for v := 0; v < n; v++ {
		cnt := x.off[v+1] - x.off[v]
		for _, rel := range x.marks[x.markOff[v]:x.markOff[v+1]] {
			if int64(rel) < 0 || int64(rel) >= cnt {
				return nil, fh, corrupt("mark %d of node %d outside its %d entries", rel, v, cnt)
			}
		}
	}
	return x, fh, nil
}

// readEntries reads the key and value columns that follow the metadata
// in one sequential pass, verifying both checksums and every entry: its
// node is below n, its step at most maxStoredStep, its key above the
// previous key of the same node, and its value in (0, 1] (so finite).
// With keep it fills x.keys and x.vals; the disk loaders only check.
func readEntries(r io.Reader, x *Index, fh fileHeader, keep bool) error {
	le := binary.LittleEndian
	n := uint32(len(x.d))
	nb, maxStep := x.prm.nodeBits, uint32(x.prm.maxStep)
	mask := uint32(1)<<nb - 1
	v, prev := 0, uint32(0)
	err := readColumn(r, fh.numEntries, fh.crcKeys, "keys", func(i int64, raw []byte) error {
		// Walk the chunk one node's run at a time. A run that opens the
		// node has no previous key to be above, and since a node's keys
		// ascend, the run's last key holds its deepest step.
		for len(raw) > 0 {
			for x.off[v+1] <= i {
				v++
			}
			run := raw[:4*min64(x.off[v+1]-i, int64(len(raw)/4))]
			p, opens := prev, i == x.off[v]
			for j := 0; j < len(run); j += 4 {
				key := le.Uint32(run[j:])
				if key&mask >= n {
					return corrupt("entry %d of node %d names node %d of %d", i+int64(j/4), v, key&mask, n)
				}
				if key <= p && (j > 0 || !opens) {
					return corrupt("entry %d of node %d is not above the one before it", i+int64(j/4), v)
				}
				p = key
				if keep {
					x.keys = append(x.keys, key)
				}
			}
			if p>>nb > maxStep {
				return corrupt("node %d stores step %d, deeper than %d", v, p>>nb, maxStep)
			}
			prev = p
			raw = raw[len(run):]
			i += int64(len(run) / 4)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = readColumn(r, fh.numEntries, fh.crcVals, "values", func(i int64, raw []byte) error {
		for j := 0; j < len(raw); j += 4 {
			// Non-negative floats order like their bits, so a value is in
			// (0, 1] exactly when its bits are in [1, bits(1.0)].
			b := le.Uint32(raw[j:])
			if b-1 >= math.Float32bits(1) {
				return corrupt("entry %d has value %v outside (0, 1]", i+int64(j/4), math.Float32frombits(b))
			}
			if keep {
				x.vals = append(x.vals, math.Float32frombits(b))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if keep {
		// Growing by append left up to a quarter of spare capacity; the
		// resident index keeps exact-size columns.
		x.keys, x.vals = slices.Clone(x.keys), slices.Clone(x.vals)
	}
	return nil
}

// readColumn reads count little-endian 32-bit words from r in bounded
// chunks, hands each chunk's bytes and the index of its first word to
// fn, and then checks the column's CRC-32C against sum. A byteReader's
// chunks are handed over in place.
func readColumn(r io.Reader, count int64, sum uint32, what string, fn func(int64, []byte) error) error {
	const chunk = 1 << 14
	var buf []byte
	crc := uint32(0)
	for i := int64(0); i < count; {
		want := min64(count-i, chunk)
		var raw []byte
		if br, ok := r.(*byteReader); ok && int64(len(br.b)) >= 4*want {
			raw, br.b = br.b[:4*want], br.b[4*want:]
		} else {
			if buf == nil {
				buf = make([]byte, 4*min64(count, chunk))
			}
			raw = buf[:4*want]
			if _, err := io.ReadFull(r, raw); err != nil {
				return corrupt("reading entry %s: %w", what, err)
			}
		}
		crc = crc32.Update(crc, castagnoli, raw)
		if err := fn(i, raw); err != nil {
			return err
		}
		i += want
	}
	if crc != sum {
		return corrupt("entry %s checksum mismatch", what)
	}
	return nil
}

// readChunkedU64 reads count little-endian uint64s, growing the result
// incrementally so bogus counts fail at EOF with bounded allocation.
func readChunkedU64(r io.Reader, count int64, what string) ([]uint64, error) {
	if count < 0 {
		return nil, corrupt("negative %s count", what)
	}
	const chunk = 1 << 16
	out := make([]uint64, 0, min64(count, chunk))
	buf := make([]byte, 8*min64(count, chunk))
	for int64(len(out)) < count {
		want := count - int64(len(out))
		if want > chunk {
			want = chunk
		}
		if _, err := io.ReadFull(r, buf[:8*want]); err != nil {
			return nil, corrupt("reading %s: %w", what, err)
		}
		for i := int64(0); i < want; i++ {
			out = append(out, binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return out, nil
}

// readChunkedU32 is readChunkedU64 for uint32s.
func readChunkedU32(r io.Reader, count int64, what string) ([]uint32, error) {
	if count < 0 {
		return nil, corrupt("negative %s count", what)
	}
	const chunk = 1 << 16
	out := make([]uint32, 0, min64(count, chunk))
	buf := make([]byte, 4*min64(count, chunk))
	for int64(len(out)) < count {
		want := count - int64(len(out))
		if want > chunk {
			want = chunk
		}
		if _, err := io.ReadFull(r, buf[:4*want]); err != nil {
			return nil, corrupt("reading %s: %w", what, err)
		}
		for i := int64(0); i < want; i++ {
			out = append(out, binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	return out, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ReadIndex deserializes an index written by WriteTo, binding it to g
// (which must be the graph it was built over; only the node count is
// verifiable). It verifies every checksum and entry on the way, and any
// damage it finds is an error wrapping ErrCorrupt.
func ReadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	br := bufio.NewReaderSize(r, readBuffer)
	x, fh, err := readMeta(br, g)
	if err != nil {
		return nil, err
	}
	if err := readEntries(br, x, fh, true); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, corrupt("trailing bytes after the value column")
	}
	return x, nil
}

// LoadFile reads an index from path.
func LoadFile(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadIndex(f, g)
}

// ErrMmapUnsupported reports that this platform or byte order cannot
// serve the zero-copy mapped mode; callers fall back to OpenDiskIndex.
var ErrMmapUnsupported = mmap.ErrUnsupported

// MmapSupported reports whether OpenDiskIndexMmap can serve here
// (platform mmap support and a little-endian CPU).
func MmapSupported() bool { return mmap.Supported() }

// DiskIndex is the entry source of an index whose HP entries stay on
// disk (Section 5.4): only the O(n) metadata (correction factors, flags,
// offsets) is memory-resident, and each query fetches the relevant H(v)
// ranges with positioned reads — a constant I/O cost per query. Opened
// with OpenDiskIndexMmap, the entries regions are instead memory-mapped
// and served as typed views, making the OS page cache the only cache.
// Queries run through NewScratchPool, the same engine the in-memory
// index serves with.
type DiskIndex struct {
	meta       *Index
	f          *os.File
	entriesOff int64 // keys region offset (4-byte aligned)
	valsOff    int64 // vals region offset
	numEntries int64

	// mmap serving mode: when mapped is true, mkeys/mvals are typed
	// views over mm and a fetch widens a slice of them — no read
	// syscall, no allocation.
	mapped bool
	mm     *mmap.Mapping
	mkeys  []uint32
	mvals  []float32
}

// checkDiskFile verifies the SLIX stream r of file f in one sequential
// pass, readMeta and then readEntries without keeping the columns, so
// only the O(n) metadata stays resident.
func checkDiskFile(f *os.File, r io.Reader, g *graph.Graph) (*DiskIndex, error) {
	meta, fh, err := readMeta(r, g)
	if err != nil {
		return nil, err
	}
	// The offset table was validated monotone with off[n] == numEntries;
	// cross-check the claimed entries regions against the actual file
	// size before reading them, so positioned reads (or the mapped views)
	// cannot be steered past the end.
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if want := fh.entriesOff + 8*fh.numEntries; st.Size() != want {
		return nil, corrupt("index file size %d does not match header (want %d)", st.Size(), want)
	}
	if err := readEntries(r, meta, fh, false); err != nil {
		return nil, err
	}
	return &DiskIndex{
		meta:       meta,
		f:          f,
		entriesOff: fh.entriesOff,
		valsOff:    fh.entriesOff + 4*fh.numEntries,
		numEntries: fh.numEntries,
	}, nil
}

// OpenDiskIndex memory-maps nothing and loads only metadata from path;
// queries fetch entries with positioned reads.
func OpenDiskIndex(path string, g *graph.Graph) (*DiskIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	d, err := checkDiskFile(f, bufio.NewReaderSize(f, readBuffer), g)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// OpenDiskIndexMmap opens path like OpenDiskIndex but maps the file
// and serves the entries regions as typed views: a fetch widens a slice
// of the mapping and the OS page cache is the only cache. It runs the
// same open pass as OpenDiskIndex over the mapped bytes, so every input
// the ReadAt loader rejects is rejected here too. On platforms or byte
// orders where the reinterpretation is invalid it fails with
// ErrMmapUnsupported and the caller falls back to OpenDiskIndex.
func OpenDiskIndexMmap(path string, g *graph.Graph) (*DiskIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	d, err := mapDiskFile(f, g)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// mapDiskFile maps all of f and checks it as checkDiskFile does, with
// the entry columns read in place, under the fault guard of a fetch.
func mapDiskFile(f *os.File, g *graph.Graph) (d *DiskIndex, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	mm, err := mmap.Open(f, st.Size())
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			mm.Close()
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, mappedFault(r, mm, "opening the mapped index")
		}
	}()
	data := mm.Bytes()
	if d, err = checkDiskFile(f, &byteReader{data}, g); err != nil {
		return nil, err
	}
	if d.mkeys, err = mmap.U32(data[d.entriesOff:d.valsOff]); err == nil {
		d.mvals, err = mmap.F32(data[d.valsOff : d.valsOff+4*d.numEntries])
	}
	if err != nil {
		return nil, fmt.Errorf("core: mapping entries region: %w", err)
	}
	d.mm = mm
	d.mapped = true
	return d, nil
}

// byteReader reads bytes already in memory, the mapped file; readColumn
// takes its chunks from it in place rather than copying them.
type byteReader struct{ b []byte }

func (r *byteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// mappedFault turns a panic recovered while reading mapping m into an
// error wrapping ErrCorrupt when it is a memory fault inside m, which
// only a file shrinking under its mapping causes, and re-panics any
// other.
func mappedFault(r any, m *mmap.Mapping, what string) error {
	f, ok := r.(interface {
		runtime.Error
		Addr() uintptr
	})
	if !ok || !m.Contains(f.Addr()) {
		panic(r)
	}
	return corrupt("%s: %v (file truncated after open)", what, r)
}

// Mapped reports whether the index serves from a memory mapping rather
// than positioned reads.
func (d *DiskIndex) Mapped() bool { return d.mapped }

// Close releases the mapping (if any) and the underlying file.
func (d *DiskIndex) Close() error {
	var err error
	if d.mm != nil {
		err = d.mm.Close()
		d.mm, d.mkeys, d.mvals, d.mapped = nil, nil, nil, false
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Meta exposes the O(n) in-memory part (graph, parameters, d̃, stats).
func (d *DiskIndex) Meta() *Index { return d.meta }

// NumEntries returns the number of HP entries in the on-disk region.
func (d *DiskIndex) NumEntries() int64 { return d.numEntries }

// DiskScratch is the per-query scratch of a disk index; the one
// Scratch type carries its fetch buffers.
type DiskScratch = Scratch

// NewScratch sizes a Scratch for the disk index's graph.
func (d *DiskIndex) NewScratch() *Scratch { return d.meta.NewScratch() }

// entries implements entrySource. In mapped mode it widens a slice of
// the typed views, with no read and no allocation (mappedEntries).
// Otherwise it reads the keys and vals ranges with two positioned reads
// of 4·cnt bytes and decodes them into the same widened form. A read
// error, or a mapped range the file no longer holds, is the only error
// any query can return.
func (d *DiskIndex) entries(v graph.NodeID, s *Scratch, slot int) ([]uint64, []float64, error) {
	lo, hi := d.meta.off[v], d.meta.off[v+1]
	if d.mapped {
		return d.mappedEntries(v, lo, hi, s, slot)
	}
	cnt := int(hi - lo)
	need := cnt * 8
	if cap(s.raw) < need {
		s.raw = make([]byte, need)
	}
	raw := s.raw[:need]
	if _, err := d.f.ReadAt(raw[:4*cnt], d.entriesOff+lo*4); err != nil {
		return nil, nil, fmt.Errorf("core: disk index key read for node %d: %w", v, err)
	}
	if _, err := d.f.ReadAt(raw[4*cnt:], d.valsOff+lo*4); err != nil {
		return nil, nil, fmt.Errorf("core: disk index value read for node %d: %w", v, err)
	}
	nb := d.meta.prm.nodeBits
	le := binary.LittleEndian
	k := slices.Grow(s.fk[slot][:0], cnt)[:cnt]
	for i := range k {
		k[i] = unpackKey(le.Uint32(raw[4*i:]), nb)
	}
	val := slices.Grow(s.fv[slot][:0], cnt)[:cnt]
	for i := range val {
		val[i] = float64(math.Float32frombits(le.Uint32(raw[4*(cnt+i):])))
	}
	s.fk[slot], s.fv[slot] = k, val
	return k, val, nil
}

// mappedEntries widens entries lo..hi of the mapped views. The file may
// have been truncated since it was mapped: a page wholly past its new
// end faults, and the part of a page past it reads zeros. The fault is
// recovered into an error wrapping ErrCorrupt, and so is a zero value,
// which the open pass never lets through; keys precede values in the
// file, so the last value read is past the cut whenever any of the
// range is. A fault outside the mapping re-panics.
func (d *DiskIndex) mappedEntries(v graph.NodeID, lo, hi int64, s *Scratch, slot int) (k []uint64, val []float64, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			k, val, err = nil, nil, mappedFault(r, d.mm, fmt.Sprintf("mapped entries of node %d", v))
		}
	}()
	k, val = d.meta.widen(d.mkeys[lo:hi], d.mvals[lo:hi], s, slot)
	if len(val) > 0 && val[len(val)-1] == 0 {
		return nil, nil, corrupt("mapped entries of node %d read as zeros (file truncated after open)", v)
	}
	return k, val, nil
}
