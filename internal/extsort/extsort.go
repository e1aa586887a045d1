// Package extsort provides a bounded-memory external merge sort for the
// fixed-size HP records of SLING's out-of-core index construction
// (Section 5.4 of the paper): records accumulate in a memory buffer, spill
// to sorted run files when the buffer fills, and stream back in a k-way
// merge. The out-of-core builder sorts all h̃^(ℓ)(x, k) entries by
// (x, step, k), which is exactly the on-disk index layout, using
// O((n/ε)·log(n/ε)) sequential I/O as the paper prescribes.
package extsort

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Record is one sortable unit: a node-keyed entry ordered by (Node, Key).
type Record struct {
	Node int32
	Key  uint64
	Val  float64
}

// Less orders records by (Node, Key).
func (r Record) Less(o Record) bool {
	if r.Node != o.Node {
		return r.Node < o.Node
	}
	return r.Key < o.Key
}

const recordBytes = 4 + 8 + 8

func encode(r Record, buf []byte) {
	binary.LittleEndian.PutUint32(buf, uint32(r.Node))
	binary.LittleEndian.PutUint64(buf[4:], r.Key)
	binary.LittleEndian.PutUint64(buf[12:], math.Float64bits(r.Val))
}

func decode(buf []byte) Record {
	return Record{
		Node: int32(binary.LittleEndian.Uint32(buf)),
		Key:  binary.LittleEndian.Uint64(buf[4:]),
		Val:  math.Float64frombits(binary.LittleEndian.Uint64(buf[12:])),
	}
}

// Sorter accumulates records and produces them in sorted order.
type Sorter struct {
	dir     string
	maxBuf  int // records held in memory before spilling
	buf     []Record
	runs    []string
	spills  int
	sorted  bool
	cleanup []string
}

// MinMemBudget is the smallest accepted memory budget (one I/O buffer's
// worth); tiny budgets still work but thrash pathologically.
const MinMemBudget = 64 * 1024

// New returns a Sorter spilling to dir, holding at most memBudget bytes of
// records in memory.
func New(dir string, memBudget int64) (*Sorter, error) {
	if memBudget < MinMemBudget {
		return nil, fmt.Errorf("extsort: memory budget %d below minimum %d", memBudget, int64(MinMemBudget))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("extsort: creating spill dir: %w", err)
	}
	maxBuf := int(memBudget / recordBytes)
	return &Sorter{dir: dir, maxBuf: maxBuf}, nil
}

// Add appends one record, spilling a sorted run when the buffer is full.
func (s *Sorter) Add(r Record) error {
	if s.sorted {
		return errors.New("extsort: Add after Sort")
	}
	s.buf = append(s.buf, r)
	if len(s.buf) >= s.maxBuf {
		return s.spill()
	}
	return nil
}

func (s *Sorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	sort.Slice(s.buf, func(i, j int) bool { return s.buf[i].Less(s.buf[j]) })
	path := filepath.Join(s.dir, fmt.Sprintf("run-%06d.bin", s.spills))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("extsort: creating run file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var rec [recordBytes]byte
	for _, r := range s.buf {
		encode(r, rec[:])
		if _, err := w.Write(rec[:]); err != nil {
			f.Close()
			return fmt.Errorf("extsort: writing run: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.runs = append(s.runs, path)
	s.cleanup = append(s.cleanup, path)
	s.spills++
	s.buf = s.buf[:0]
	return nil
}

// Sort finalizes input and returns an iterator over all records in
// (Node, Key) order. The Sorter cannot accept further Adds. Closing the
// iterator removes the spill files.
func (s *Sorter) Sort() (*Iterator, error) {
	if s.sorted {
		return nil, errors.New("extsort: Sort called twice")
	}
	s.sorted = true
	sort.Slice(s.buf, func(i, j int) bool { return s.buf[i].Less(s.buf[j]) })
	it := &Iterator{mem: s.buf, cleanup: s.cleanup}
	for _, path := range s.runs {
		f, err := os.Open(path)
		if err != nil {
			it.Close()
			return nil, fmt.Errorf("extsort: reopening run: %w", err)
		}
		rr := &runReader{f: f, br: bufio.NewReaderSize(f, 1<<20)}
		ok, err := rr.advance()
		if err != nil {
			it.Close()
			return nil, err
		}
		if ok {
			it.heap = append(it.heap, rr)
		} else {
			f.Close()
		}
	}
	heap.Init(&it.heap)
	return it, nil
}

// Iterator streams merged records. It is not safe for concurrent use.
type Iterator struct {
	mem     []Record
	memPos  int
	heap    runHeap
	cleanup []string
	closed  bool
}

// Next returns the next record in order; ok is false at the end.
func (it *Iterator) Next() (rec Record, ok bool, err error) {
	memOK := it.memPos < len(it.mem)
	if len(it.heap) == 0 {
		if !memOK {
			return Record{}, false, nil
		}
		rec = it.mem[it.memPos]
		it.memPos++
		return rec, true, nil
	}
	top := it.heap[0]
	if memOK && it.mem[it.memPos].Less(top.cur) {
		rec = it.mem[it.memPos]
		it.memPos++
		return rec, true, nil
	}
	rec = top.cur
	ok2, err := top.advance()
	if err != nil {
		return Record{}, false, err
	}
	if ok2 {
		heap.Fix(&it.heap, 0)
	} else {
		top.f.Close()
		heap.Pop(&it.heap)
	}
	return rec, true, nil
}

// Close releases run files and deletes them.
func (it *Iterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	for _, rr := range it.heap {
		rr.f.Close()
	}
	it.heap = nil
	var firstErr error
	for _, path := range it.cleanup {
		if err := os.Remove(path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

type runReader struct {
	f   *os.File
	br  *bufio.Reader
	cur Record
}

// advance loads the next record into cur; ok is false at EOF.
func (r *runReader) advance() (bool, error) {
	var buf [recordBytes]byte
	_, err := io.ReadFull(r.br, buf[:])
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("extsort: reading run: %w", err)
	}
	r.cur = decode(buf[:])
	return true, nil
}

type runHeap []*runReader

func (h runHeap) Len() int            { return len(h) }
func (h runHeap) Less(i, j int) bool  { return h[i].cur.Less(h[j].cur) }
func (h runHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
