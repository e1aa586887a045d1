// Package mmap confines every unsafe reinterpretation in the
// repository: it maps a file read-only into memory and hands out
// typed []uint32 / []float32 views over byte ranges of the mapping,
// so the disk-resident query path can consume index sections with
// zero copies and zero per-query allocations — the OS page cache
// becomes the only cache.
//
// The slingvet unsafeconfine analyzer enforces that no other package
// imports unsafe; everything here validates alignment and length
// before reinterpreting, and Supported reports false on platforms or
// byte orders where the reinterpretation would be invalid, so callers
// always have the plain ReadAt path to fall back to.
package mmap

import (
	"errors"
	"fmt"
	"os"
)

// ErrUnsupported reports that this platform or byte order cannot serve
// typed views over a mapped little-endian file; callers fall back to
// positioned reads.
var ErrUnsupported = errors.New("mmap: not supported on this platform or byte order")

// Supported reports whether mapped typed views work here: the platform
// must provide mmap and the CPU must be little-endian (the SLIX file
// format is little-endian, and a view cannot byte-swap).
func Supported() bool { return platformSupported && hostLittleEndian }

// Mapping is a read-only memory mapping of a file prefix.
type Mapping struct {
	data []byte
}

// Open maps the first size bytes of f read-only. The file must be at
// least size bytes long — mapping beyond EOF would turn later loads
// into SIGBUS, so the length is re-checked here rather than trusted.
func Open(f *os.File, size int64) (*Mapping, error) {
	if !Supported() {
		return nil, ErrUnsupported
	}
	if size < 0 {
		return nil, fmt.Errorf("mmap: negative size %d", size)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < size {
		return nil, fmt.Errorf("mmap: file is %d bytes, cannot map %d", st.Size(), size)
	}
	if size == 0 {
		return &Mapping{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmap: size %d overflows int", size)
	}
	data, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("mmap: %w", err)
	}
	return &Mapping{data: data}, nil
}

// Bytes returns the mapped region. The slice is read-only: storing
// through it faults (the mapping is PROT_READ).
func (m *Mapping) Bytes() []byte { return m.data }

// Close unmaps the region. Views previously derived from it become
// invalid; the caller owns that ordering.
func (m *Mapping) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	return unmap(data)
}
