package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sling/internal/atomicio"
)

// segMeta is the in-memory card for one on-disk segment.
type segMeta struct {
	name     string
	firstLSN uint64
	lastLSN  uint64 // == firstLSN-1 while the segment has no records
	records  int
	bytes    int64
}

// snapMeta is the in-memory card for one on-disk snapshot file.
type snapMeta struct {
	name     string
	seq, lsn uint64
}

// Log is an open durable directory: the recovered snapshot and WAL tail,
// plus the active segment accepting appends. Methods are safe for
// concurrent use.
type Log struct {
	opt Options
	dir string

	mu       sync.Mutex
	closed   bool
	err      error // sticky append-path failure; the log is poisoned
	lastLSN  uint64
	segs     []segMeta
	snaps    []snapMeta // ascending seq; last is the recovered one
	active   *os.File
	segBytes int64 // size of the active segment

	snap *Snapshot // recovered snapshot (nil on a fresh dir or once released)
	tail []Record  // records with LSN > snap.LSN, ascending

	written   int64 // record bytes appended in-process (fault injection)
	appends   uint64
	snapshots uint64 // snapshots written in-process
}

// Open recovers DIR and readies it for appends: leftover .tmp files are
// removed, the newest CRC-valid snapshot is loaded, the segment chain is
// verified (contiguous LSNs, per-record CRCs), a torn tail in the final
// segment is truncated at the last valid record, and the tail of records
// past the snapshot is retained for replay via Tail.
func Open(o Options) (*Log, error) {
	opt := o.withDefaults()
	if !opt.ReadOnly {
		if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	l := &Log{opt: opt, dir: opt.Dir}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) recover() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var snaps []snapMeta
	var segs []segMeta
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if !l.opt.ReadOnly {
				os.Remove(filepath.Join(l.dir, name))
			}
		case strings.HasSuffix(name, ".slsnap"):
			var seq, lsn uint64
			if _, err := fmt.Sscanf(name, "snap-%16x-%16x.slsnap", &seq, &lsn); err != nil {
				return corruptf("unrecognized snapshot file name %q", name)
			}
			snaps = append(snaps, snapMeta{name: name, seq: seq, lsn: lsn})
		case strings.HasSuffix(name, ".slwal"):
			var first uint64
			if _, err := fmt.Sscanf(name, "wal-%16x.slwal", &first); err != nil {
				return corruptf("unrecognized WAL file name %q", name)
			}
			segs = append(segs, segMeta{name: name, firstLSN: first})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })

	// Newest snapshot whose CRC verifies wins. An unreadable newer one is
	// tolerated — segments are only pruned up to the previous snapshot, so
	// falling back to it loses nothing.
	for i := len(snaps) - 1; i >= 0; i-- {
		s, err := readSnapshotFile(filepath.Join(l.dir, snaps[i].name))
		if err != nil {
			continue
		}
		if s.LSN != snaps[i].lsn {
			continue // name and content disagree; treat as invalid
		}
		l.snap = s
		l.snaps = snaps[:i+1]
		break
	}
	var snapLSN uint64
	if l.snap != nil {
		snapLSN = l.snap.LSN
	}

	// Verify the segment chain and collect the record tail.
	var records []Record
	prevLast := uint64(0)
	for i := range segs {
		seg := &segs[i]
		last := i == len(segs)-1
		recs, err := l.scanSegment(seg, last)
		if err != nil {
			return err
		}
		if i > 0 && seg.firstLSN != prevLast+1 && seg.firstLSN > snapLSN+1 {
			// A gap between segments is legal only when the snapshot
			// covers every missing record (pruning removed them).
			return corruptf("segment %s starts at LSN %d, previous chain ends at %d, snapshot covers %d",
				seg.name, seg.firstLSN, prevLast, snapLSN)
		}
		records = append(records, recs...)
		prevLast = seg.lastLSN
	}
	l.segs = segs

	// Keep the tail past the snapshot; it must chain directly off it.
	for _, r := range records {
		if r.LSN <= snapLSN {
			continue
		}
		if l.snap == nil {
			return corruptf("WAL records present but no valid snapshot to replay them onto")
		}
		want := snapLSN + uint64(len(l.tail)) + 1
		if r.LSN != want {
			return corruptf("WAL tail gap: expected LSN %d, found %d", want, r.LSN)
		}
		l.tail = append(l.tail, r)
	}

	l.lastLSN = snapLSN
	if n := len(segs); n > 0 && segs[n-1].lastLSN > l.lastLSN {
		l.lastLSN = segs[n-1].lastLSN
	}

	// Position for appends: reuse the final segment when its chain ends
	// exactly at lastLSN; otherwise (fresh dir, or pruning left the
	// snapshot ahead of the WAL) start a new segment.
	if l.opt.ReadOnly {
		return nil
	}
	if n := len(l.segs); n > 0 && l.segs[n-1].lastLSN == l.lastLSN {
		seg := &l.segs[n-1]
		f, err := os.OpenFile(filepath.Join(l.dir, seg.name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		l.active = f
		l.segBytes = seg.bytes
	}
	return nil
}

// scanSegment reads one segment, verifying the header and every record.
// In the final segment a bad record is a torn tail: the file is truncated
// at the last valid record (unless read-only) and the scan stops. In any
// other segment a bad record is a hard corruption error.
func (l *Log) scanSegment(seg *segMeta, final bool) ([]Record, error) {
	path := filepath.Join(l.dir, seg.name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < segHeaderSize {
		if final {
			return nil, corruptf("segment %s: truncated header (%d bytes)", seg.name, len(data))
		}
		return nil, corruptf("segment %s: truncated header mid-chain", seg.name)
	}
	if string(data[:4]) != walMagic {
		return nil, corruptf("segment %s: bad magic", seg.name)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != formatVersion {
		return nil, corruptf("segment %s: unsupported format version %d", seg.name, v)
	}
	if first := binary.LittleEndian.Uint64(data[8:16]); first != seg.firstLSN {
		return nil, corruptf("segment %s: header first-LSN %d disagrees with file name", seg.name, first)
	}

	var recs []Record
	seg.lastLSN = seg.firstLSN - 1
	off := int64(segHeaderSize)
	for off < int64(len(data)) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			if !final {
				return nil, corruptf("segment %s: record at offset %d mid-chain: %v", seg.name, off, err)
			}
			if hasValidRecordAfter(data, off, seg.lastLSN) {
				// Intact records beyond the damage mean this is not a torn
				// write at the tail; truncating would drop acknowledged
				// batches and skipping would hide the hole. Refuse.
				return nil, corruptf("segment %s: record at offset %d damaged with valid records after it: %v", seg.name, off, err)
			}
			// Torn tail: drop it at the last valid record.
			if l.opt.ReadOnly {
				break
			}
			if terr := os.Truncate(path, off); terr != nil {
				return nil, fmt.Errorf("truncating torn tail of %s at %d: %w", seg.name, off, terr)
			}
			data = data[:off]
			break
		}
		want := seg.firstLSN + uint64(len(recs))
		if rec.LSN != want {
			return nil, corruptf("segment %s: record at offset %d has LSN %d, expected %d", seg.name, off, rec.LSN, want)
		}
		recs = append(recs, rec)
		seg.lastLSN = rec.LSN
		off += n
	}
	seg.records = len(recs)
	seg.bytes = off
	return recs, nil
}

// decodeRecord parses one record from the front of b, returning it and
// the bytes consumed. Any shortfall or checksum mismatch is an error.
func decodeRecord(b []byte) (Record, int64, error) {
	if len(b) < recHeaderSize {
		return Record{}, 0, fmt.Errorf("short record header (%d bytes)", len(b))
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen > maxRecordPayload {
		return Record{}, 0, fmt.Errorf("record payload length %d exceeds limit", plen)
	}
	if int64(len(b)) < recHeaderSize+int64(plen) {
		return Record{}, 0, fmt.Errorf("short record payload (%d of %d bytes)", len(b)-recHeaderSize, plen)
	}
	if plen < 12 {
		return Record{}, 0, fmt.Errorf("record payload too short (%d bytes)", plen)
	}
	payload := b[recHeaderSize : recHeaderSize+int64(plen)]
	lsn := binary.LittleEndian.Uint64(payload[0:8])
	nops := binary.LittleEndian.Uint32(payload[8:12])
	if uint64(plen) != 12+uint64(nops)*opSize {
		return Record{}, 0, fmt.Errorf("record payload length %d disagrees with op count %d", plen, nops)
	}
	// CRC last: the cheap structural checks above reject most garbage, so
	// the torn-tail scanner can probe arbitrary offsets inexpensively.
	if crc := binary.LittleEndian.Uint32(b[4:8]); crc != crc32.Checksum(payload, crcTable) {
		return Record{}, 0, fmt.Errorf("record checksum mismatch")
	}
	rec := Record{LSN: lsn, Ops: make([]Op, nops)}
	for i := range rec.Ops {
		o := payload[12+i*opSize:]
		rec.Ops[i] = Op{
			Add:  o[0] != 0,
			From: int32(binary.LittleEndian.Uint32(o[1:5])),
			To:   int32(binary.LittleEndian.Uint32(o[5:9])),
		}
	}
	return rec, recHeaderSize + int64(plen), nil
}

// hasValidRecordAfter probes every offset past a damaged record for a
// record that still decodes with a CRC match and a chain-plausible LSN.
// Finding one proves the damage sits mid-log (acknowledged data follows),
// which recovery must surface instead of truncating or skipping.
func hasValidRecordAfter(data []byte, off int64, lastLSN uint64) bool {
	for p := off + 1; p+recHeaderSize <= int64(len(data)); p++ {
		rec, _, err := decodeRecord(data[p:])
		if err == nil && rec.LSN > lastLSN {
			return true
		}
	}
	return false
}

// encodeRecord builds the wire form of a record.
func encodeRecord(lsn uint64, ops []Op) []byte {
	plen := 12 + len(ops)*opSize
	buf := make([]byte, recHeaderSize+plen)
	payload := buf[recHeaderSize:]
	binary.LittleEndian.PutUint64(payload[0:8], lsn)
	binary.LittleEndian.PutUint32(payload[8:12], uint32(len(ops)))
	for i, op := range ops {
		o := payload[12+i*opSize:]
		o[0] = 0
		if op.Add {
			o[0] = 1
		}
		binary.LittleEndian.PutUint32(o[1:5], uint32(op.From))
		binary.LittleEndian.PutUint32(o[5:9], uint32(op.To))
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(plen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return buf
}

// Snapshot returns the snapshot recovery loaded, nil on a fresh
// directory or once ReleaseRecovered has run. The caller must not mutate
// it.
func (l *Log) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snap
}

// Tail returns the recovered records past the snapshot, in LSN order, for
// replay; nil once ReleaseRecovered has run. The caller must not mutate
// them.
func (l *Log) Tail() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// ReleaseRecovered drops the recovered snapshot and WAL tail, which a
// restore needs only until it has replayed them: the snapshot alone holds
// the index bytes and two edge lists. Appends, WriteSnapshot and Stats
// do not use them.
func (l *Log) ReleaseRecovered() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.snap, l.tail = nil, nil
}

// LastLSN returns the LSN of the most recent acknowledged append (or the
// recovered snapshot/tail position right after Open).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// Append journals one applied batch and returns its LSN, fsyncing unless
// Options.NoSync. Once an append fails — a real I/O error or the injected
// fault — the log is poisoned: the tail may be torn, so every later
// Append returns the same error and only recovery (reopening) repairs the
// file.
func (l *Log) Append(ops []Op) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return 0, ErrClosed
	case l.opt.ReadOnly:
		return 0, ErrReadOnly
	case l.err != nil:
		return 0, l.err
	}
	lsn := l.lastLSN + 1
	if l.active == nil || l.segBytes >= l.opt.SegmentBytes {
		if err := l.rotateLocked(lsn); err != nil {
			return 0, err
		}
	}
	buf := encodeRecord(lsn, ops)

	if l.opt.FailAfterBytes > 0 && l.written+int64(len(buf)) > l.opt.FailAfterBytes {
		// Injected crash: write only the bytes that "made it to disk"
		// before the fault, leaving a torn record for recovery to drop.
		if part := l.opt.FailAfterBytes - l.written; part > 0 {
			l.active.Write(buf[:part])
			l.active.Sync()
			l.written += part
		}
		l.err = ErrInjectedFault
		return 0, l.err
	}

	if _, err := l.active.Write(buf); err != nil {
		l.err = fmt.Errorf("durable: appending LSN %d: %w", lsn, err)
		return 0, l.err
	}
	if !l.opt.NoSync {
		if err := l.active.Sync(); err != nil {
			l.err = fmt.Errorf("durable: syncing LSN %d: %w", lsn, err)
			return 0, l.err
		}
	}
	l.written += int64(len(buf))
	l.segBytes += int64(len(buf))
	l.lastLSN = lsn
	l.appends++
	seg := &l.segs[len(l.segs)-1]
	seg.lastLSN = lsn
	seg.records++
	seg.bytes = l.segBytes
	return lsn, nil
}

// rotateLocked closes the active segment and starts a fresh one whose
// first record will carry firstLSN. Caller holds mu.
func (l *Log) rotateLocked(firstLSN uint64) error {
	if l.active != nil {
		if err := l.active.Close(); err != nil {
			return err
		}
		l.active = nil
	}
	name := segmentName(firstLSN)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, segHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], firstLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.segBytes = segHeaderSize
	l.segs = append(l.segs, segMeta{name: name, firstLSN: firstLSN, lastLSN: firstLSN - 1, bytes: segHeaderSize})
	return nil
}

// Stats is a point-in-time view of the log for /stats and metrics.
type Stats struct {
	LastLSN          uint64
	Segments         int
	WALBytes         int64 // bytes across all live segments
	Snapshots        int   // snapshot files currently retained
	LastSnapshotLSN  uint64
	Appends          uint64 // records appended in-process
	SnapshotsWritten uint64 // snapshots written in-process
}

// Stats reports the log's current shape.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		LastLSN:          l.lastLSN,
		Segments:         len(l.segs),
		Snapshots:        len(l.snaps),
		Appends:          l.appends,
		SnapshotsWritten: l.snapshots,
	}
	for i := range l.segs {
		s.WALBytes += l.segs[i].bytes
	}
	if n := len(l.snaps); n > 0 {
		s.LastSnapshotLSN = l.snaps[n-1].lsn
	}
	return s
}

// Close releases the active segment. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active != nil {
		err := l.active.Close()
		l.active = nil
		return err
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable (shared atomic-write idiom; see internal/atomicio).
func syncDir(dir string) error { return atomicio.SyncDir(dir) }
