package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"sling/internal/atomicio"
	"sling/internal/graph"
	"sling/internal/mmap"
)

// Index file format (all little-endian):
//
//	magic "SLIX" | version u32 | n u32 | flags u32 | pad u32
//	c, eps, epsD, theta, delta, gamma f64 | seed u64
//	numEntries u64 | numMarks u64
//	d        n × f64
//	reduced  ⌈n/8⌉ bytes (bitmap)
//	off      (n+1) × i64
//	markOff  (n+1) × i64
//	marks    numMarks × i32
//	align    0–7 zero bytes so the keys region starts 8-byte aligned
//	keys     numEntries × u64    ← columnar, 8-byte aligned
//	vals     numEntries × f64    ← columnar, 8-byte aligned
//
// Everything before the entries regions is O(n) and loaded eagerly; the
// keys/vals regions support the paper's Section 5.4 disk-resident mode:
// a single-pair query reads two contiguous node ranges per region with
// positioned reads, a constant I/O cost since each H(v) is O(1/ε)
// bytes. Version 2 stores the entries columnar (all keys, then all
// vals) with deterministic alignment padding, so an mmap'd file can be
// reinterpreted directly as []uint64 / []float64 views — the zero-copy
// serving mode — while the ReadAt path reads the same two ranges it
// always did.
const (
	indexMagic   = "SLIX"
	indexVersion = 2

	flagEnhance        = 1 << 0
	flagSpaceReduction = 1 << 1
	flagBasicEstimator = 1 << 2
)

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
// (ending at off) and the keys region, sized so keys starts 8-byte
// aligned. It is a pure function of the header counts, so reader and
// writer always agree.
func alignPad(off int64) int64 { return (8 - off%8) % 8 }

// metaSize returns the byte offset where the alignment padding starts:
// header plus every O(n) metadata region.
func metaSize(n int, numMarks int64) int64 {
	return 92 + int64(8*n) + int64((n+7)/8) + 2*int64(8*(n+1)) + 4*numMarks
}

// WriteTo serializes the index. It implements io.WriterTo. The
// returned count is the number of bytes the underlying writer actually
// accepted: counting sits beneath the internal buffer, so a failed
// flush cannot over-report buffered-but-unwritten bytes.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<20)
	n := len(x.d)
	hdr := make([]byte, 4+4+4+4+4+6*8+8+8+8)
	copy(hdr, indexMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[4:], indexVersion)
	le.PutUint32(hdr[8:], uint32(n))
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
	if _, err := bw.Write(hdr); err != nil {
		return cw.n, err
	}
	buf := make([]byte, 16)
	for _, v := range x.d {
		le.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf[:8]); err != nil {
			return cw.n, err
		}
	}
	bitmap := make([]byte, (n+7)/8)
	for v, r := range x.reduced {
		if r {
			bitmap[v/8] |= 1 << (v % 8)
		}
	}
	if _, err := bw.Write(bitmap); err != nil {
		return cw.n, err
	}
	for _, o := range x.off {
		le.PutUint64(buf, uint64(o))
		if _, err := bw.Write(buf[:8]); err != nil {
			return cw.n, err
		}
	}
	for _, o := range x.markOff {
		le.PutUint64(buf, uint64(o))
		if _, err := bw.Write(buf[:8]); err != nil {
			return cw.n, err
		}
	}
	for _, m := range x.marks {
		le.PutUint32(buf, uint32(m))
		if _, err := bw.Write(buf[:4]); err != nil {
			return cw.n, err
		}
	}
	var zeros [8]byte
	if pad := alignPad(metaSize(n, int64(len(x.marks)))); pad > 0 {
		if _, err := bw.Write(zeros[:pad]); err != nil {
			return cw.n, err
		}
	}
	for _, k := range x.keys {
		le.PutUint64(buf, k)
		if _, err := bw.Write(buf[:8]); err != nil {
			return cw.n, err
		}
	}
	for _, v := range x.vals {
		le.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf[:8]); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
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

// readMeta parses everything before the entries regions into a skeleton
// Index (keys/vals empty), consuming the alignment padding, and returns
// the byte offset of the keys region and the entry count.
func readMeta(r io.Reader, g *graph.Graph) (*Index, int64, int64, error) {
	le := binary.LittleEndian
	hdr := make([]byte, 92)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, 0, fmt.Errorf("core: reading index header: %w", err)
	}
	if string(hdr[:4]) != indexMagic {
		return nil, 0, 0, errors.New("core: bad magic; not a SLIX file")
	}
	if v := le.Uint32(hdr[4:]); v != indexVersion {
		return nil, 0, 0, fmt.Errorf("core: unsupported index version %d", v)
	}
	n := int(le.Uint32(hdr[8:]))
	if g != nil && g.NumNodes() != n {
		return nil, 0, 0, fmt.Errorf("core: index built for n=%d nodes, graph has %d", n, g.NumNodes())
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
	if prm.c <= 0 || prm.c >= 1 || prm.theta <= 0 {
		return nil, 0, 0, errors.New("core: corrupt index parameters")
	}
	numEntries := int64(le.Uint64(hdr[76:]))
	numMarks := int64(le.Uint64(hdr[84:]))
	if numEntries < 0 || numMarks < 0 {
		return nil, 0, 0, errors.New("core: negative sizes in index header")
	}
	x := &Index{g: g, prm: prm}
	// All counted allocations go through readChunkedU64/U32, which grow
	// with the bytes actually read, so a corrupt header claiming a huge
	// size fails at EOF instead of exhausting memory.
	dBits, err := readChunkedU64(r, int64(n), "d")
	if err != nil {
		return nil, 0, 0, err
	}
	x.d = make([]float64, n)
	for i, b := range dBits {
		x.d[i] = math.Float64frombits(b)
	}
	bitmap := make([]byte, (n+7)/8)
	if _, err := io.ReadFull(r, bitmap); err != nil {
		return nil, 0, 0, fmt.Errorf("core: reading bitmap: %w", err)
	}
	x.reduced = make([]bool, n)
	for v := range x.reduced {
		x.reduced[v] = bitmap[v/8]&(1<<(v%8)) != 0
	}
	offBits, err := readChunkedU64(r, int64(n)+1, "offsets")
	if err != nil {
		return nil, 0, 0, err
	}
	x.off = make([]int64, n+1)
	for i, b := range offBits {
		x.off[i] = int64(b)
	}
	if x.off[0] != 0 || x.off[n] != numEntries {
		return nil, 0, 0, errors.New("core: corrupt offset table")
	}
	for v := 0; v < n; v++ {
		if x.off[v] > x.off[v+1] {
			return nil, 0, 0, errors.New("core: non-monotone offset table")
		}
	}
	markBits, err := readChunkedU64(r, int64(n)+1, "mark offsets")
	if err != nil {
		return nil, 0, 0, err
	}
	x.markOff = make([]int64, n+1)
	for i, b := range markBits {
		x.markOff[i] = int64(b)
	}
	if x.markOff[0] != 0 || x.markOff[n] != numMarks {
		return nil, 0, 0, errors.New("core: corrupt mark offset table")
	}
	for v := 0; v < n; v++ {
		if x.markOff[v] > x.markOff[v+1] {
			return nil, 0, 0, errors.New("core: non-monotone mark offset table")
		}
	}
	marks32, err := readChunkedU32(r, numMarks, "marks")
	if err != nil {
		return nil, 0, 0, err
	}
	x.marks = make([]int32, numMarks)
	for i, b := range marks32 {
		x.marks[i] = int32(b)
	}
	// Marks are positions into the owning node's stored entry range; an
	// out-of-range mark would panic the Section 5.3 expansion at query
	// time, so reject it at load like graph.ReadBinary does for edge
	// targets.
	for v := 0; v < n; v++ {
		cnt := x.off[v+1] - x.off[v]
		for _, rel := range x.marks[x.markOff[v]:x.markOff[v+1]] {
			if int64(rel) < 0 || int64(rel) >= cnt {
				//slingvet:ignore noderangeerr corrupt index file, not a caller-supplied node id; ErrNodeRange is reserved for query arguments
				return nil, 0, 0, fmt.Errorf("core: mark %d of node %d out of range [0,%d)", rel, v, cnt)
			}
		}
	}
	meta := metaSize(n, numMarks)
	var padBuf [8]byte
	pad := alignPad(meta)
	if pad > 0 {
		if _, err := io.ReadFull(r, padBuf[:pad]); err != nil {
			return nil, 0, 0, fmt.Errorf("core: reading alignment padding: %w", err)
		}
		for _, b := range padBuf[:pad] {
			if b != 0 {
				return nil, 0, 0, errors.New("core: non-zero alignment padding")
			}
		}
	}
	return x, meta + pad, numEntries, nil
}

// readChunkedU64 reads count little-endian uint64s, growing the result
// incrementally so bogus counts fail at EOF with bounded allocation.
func readChunkedU64(r io.Reader, count int64, what string) ([]uint64, error) {
	if count < 0 {
		return nil, fmt.Errorf("core: negative %s count", what)
	}
	const chunk = 1 << 16
	out := make([]uint64, 0, min64(count, chunk))
	buf := make([]byte, 8*chunk)
	for int64(len(out)) < count {
		want := count - int64(len(out))
		if want > chunk {
			want = chunk
		}
		if _, err := io.ReadFull(r, buf[:8*want]); err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", what, err)
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
		return nil, fmt.Errorf("core: negative %s count", what)
	}
	const chunk = 1 << 16
	out := make([]uint32, 0, min64(count, chunk))
	buf := make([]byte, 4*chunk)
	for int64(len(out)) < count {
		want := count - int64(len(out))
		if want > chunk {
			want = chunk
		}
		if _, err := io.ReadFull(r, buf[:4*want]); err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", what, err)
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
// verifiable).
func ReadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	x, _, numEntries, err := readMeta(br, g)
	if err != nil {
		return nil, err
	}
	keys, err := readChunkedU64(br, numEntries, "entry keys")
	if err != nil {
		return nil, err
	}
	valBits, err := readChunkedU64(br, numEntries, "entry values")
	if err != nil {
		return nil, err
	}
	x.keys = keys
	x.vals = make([]float64, numEntries)
	for i, b := range valBits {
		x.vals[i] = math.Float64frombits(b)
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
// and served as zero-copy typed views, making the OS page cache the only
// cache. Queries run through NewScratchPool, the same engine the
// in-memory index serves with.
type DiskIndex struct {
	meta       *Index
	f          *os.File
	entriesOff int64 // keys region offset (8-byte aligned)
	valsOff    int64 // vals region offset
	numEntries int64

	// mmap serving mode: when mapped is true, mkeys/mvals are typed
	// views over mm and a fetch is pure slicing — zero copies, zero
	// allocations.
	mapped bool
	mm     *mmap.Mapping
	mkeys  []uint64
	mvals  []float64
}

// openDiskFile opens and validates path, returning the populated
// (ReadAt-mode) DiskIndex.
func openDiskFile(path string, g *graph.Graph) (*DiskIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	meta, entriesOff, numEntries, err := readMeta(bufio.NewReaderSize(f, 1<<20), g)
	if err != nil {
		f.Close()
		return nil, err
	}
	// The offset table was validated monotone with off[n] == numEntries;
	// cross-check the claimed entries regions against the actual file
	// size so positioned reads (or the mapped views) cannot be steered
	// past the end.
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if entriesOff+numEntries*16 != st.Size() {
		f.Close()
		return nil, fmt.Errorf("core: index file size %d does not match header (want %d)",
			st.Size(), entriesOff+numEntries*16)
	}
	return &DiskIndex{
		meta:       meta,
		f:          f,
		entriesOff: entriesOff,
		valsOff:    entriesOff + 8*numEntries,
		numEntries: numEntries,
	}, nil
}

// OpenDiskIndex memory-maps nothing and loads only metadata from path;
// queries fetch entries with positioned reads.
func OpenDiskIndex(path string, g *graph.Graph) (*DiskIndex, error) {
	return openDiskFile(path, g)
}

// OpenDiskIndexMmap opens path like OpenDiskIndex but maps the file
// and serves the entries regions as zero-copy typed views: a fetch is
// pointer arithmetic and the OS page cache is the only cache. It
// validates everything OpenDiskIndex validates (same metadata parse,
// same file-size cross-check) before mapping, so every input the ReadAt
// loader rejects is rejected here too. On platforms or byte orders
// where the reinterpretation is invalid it fails with
// ErrMmapUnsupported and the caller falls back to OpenDiskIndex.
func OpenDiskIndexMmap(path string, g *graph.Graph) (*DiskIndex, error) {
	d, err := openDiskFile(path, g)
	if err != nil {
		return nil, err
	}
	mm, err := mmap.Open(d.f, d.entriesOff+16*d.numEntries)
	if err != nil {
		d.f.Close()
		return nil, err
	}
	data := mm.Bytes()
	mkeys, err := mmap.U64(data[d.entriesOff:d.valsOff])
	if err == nil {
		d.mvals, err = mmap.F64(data[d.valsOff : d.valsOff+8*d.numEntries])
	}
	if err != nil {
		mm.Close()
		d.f.Close()
		return nil, fmt.Errorf("core: mapping entries region: %w", err)
	}
	d.mkeys = mkeys
	d.mm = mm
	d.mapped = true
	return d, nil
}

// Mapped reports whether the index serves from a zero-copy memory
// mapping rather than positioned reads.
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

// entries implements entrySource. In mapped mode it slices the typed
// views directly — zero copies, zero allocations. Otherwise it reads the
// keys and vals ranges with two positioned reads and decodes them into
// the scratch's fetch buffers for slot; a read error is the only error
// any query can return.
func (d *DiskIndex) entries(v graph.NodeID, s *Scratch, slot int) ([]uint64, []float64, error) {
	lo, hi := d.meta.off[v], d.meta.off[v+1]
	if d.mapped {
		return d.mkeys[lo:hi], d.mvals[lo:hi], nil
	}
	cnt := int(hi - lo)
	need := cnt * 16
	if cap(s.raw) < need {
		s.raw = make([]byte, need)
	}
	raw := s.raw[:need]
	if _, err := d.f.ReadAt(raw[:8*cnt], d.entriesOff+lo*8); err != nil {
		return nil, nil, fmt.Errorf("core: disk index key read for node %d: %w", v, err)
	}
	if _, err := d.f.ReadAt(raw[8*cnt:], d.valsOff+lo*8); err != nil {
		return nil, nil, fmt.Errorf("core: disk index value read for node %d: %w", v, err)
	}
	k, val := s.fk[slot][:0], s.fv[slot][:0]
	le := binary.LittleEndian
	for i := 0; i < cnt; i++ {
		k = append(k, le.Uint64(raw[8*i:]))
	}
	for i := 0; i < cnt; i++ {
		val = append(val, math.Float64frombits(le.Uint64(raw[8*cnt+8*i:])))
	}
	s.fk[slot], s.fv[slot] = k, val
	return k, val, nil
}
