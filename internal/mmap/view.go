package mmap

import (
	"fmt"
	"unsafe"
)

// hostLittleEndian reports the CPU byte order; a big-endian host cannot
// view little-endian file bytes as native integers.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// U32 reinterprets b as a []uint32 view sharing b's memory. The slice
// must be 4-byte aligned and a whole number of words; violations error
// rather than producing a torn view.
func U32(b []byte) ([]uint32, error) {
	p, n, err := wordBase(b)
	if err != nil || n == 0 {
		return nil, err
	}
	return unsafe.Slice((*uint32)(p), n), nil
}

// F32 is U32 for float32 values (same representation width; the bit
// patterns are the file's little-endian IEEE 754 singles).
func F32(b []byte) ([]float32, error) {
	p, n, err := wordBase(b)
	if err != nil || n == 0 {
		return nil, err
	}
	return unsafe.Slice((*float32)(p), n), nil
}

// wordBase validates b for a 32-bit word view and returns its base
// pointer and word count.
func wordBase(b []byte) (unsafe.Pointer, int, error) {
	if !hostLittleEndian {
		return nil, 0, ErrUnsupported
	}
	if len(b)%4 != 0 {
		return nil, 0, fmt.Errorf("mmap: region of %d bytes is not a whole number of 32-bit words", len(b))
	}
	if len(b) == 0 {
		return nil, 0, nil
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%4 != 0 {
		return nil, 0, fmt.Errorf("mmap: region is not 4-byte aligned")
	}
	return p, len(b) / 4, nil
}

// Contains reports whether addr lies inside the mapped region, so a
// caller that recovered a memory fault can tell a fault in the mapping
// (the file shrank under it) from any other.
func (m *Mapping) Contains(addr uintptr) bool {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	return len(m.data) > 0 && addr >= base && addr-base < uintptr(len(m.data))
}
