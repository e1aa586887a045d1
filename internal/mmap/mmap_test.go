package mmap

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestViewsRoundTrip(t *testing.T) {
	if !Supported() {
		t.Skip("mmap unsupported on this platform")
	}
	vals := []float32{0, 1.5, -3.25, math.Pi}
	keys := []uint32{7, 1 << 30, 42, 0}
	buf := make([]byte, 4*len(keys)+4*len(vals))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(buf[4*i:], k)
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*len(keys)+4*i:], math.Float32bits(v))
	}
	path := filepath.Join(t.TempDir(), "view.bin")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := Open(f, int64(len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ks, err := U32(m.Bytes()[:4*len(keys)])
	if err != nil {
		t.Fatal(err)
	}
	vs, err := F32(m.Bytes()[4*len(keys):])
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if ks[i] != keys[i] {
			t.Fatalf("key[%d] = %d, want %d", i, ks[i], keys[i])
		}
	}
	for i := range vals {
		if vs[i] != vals[i] {
			t.Fatalf("val[%d] = %g, want %g", i, vs[i], vals[i])
		}
	}
}

// A view over a misaligned or ragged region must error, never produce a
// torn reinterpretation.
func TestViewRejectsMisalignment(t *testing.T) {
	b := make([]byte, 64)
	if _, err := U32(b[:6]); err == nil {
		t.Fatal("ragged length accepted")
	}
	if _, err := F32(b[:6]); err == nil {
		t.Fatal("ragged length accepted")
	}
	if hostLittleEndian {
		// b is heap-allocated 8-aligned; b[2:] cannot be 4-aligned.
		if _, err := U32(b[2:10]); err == nil {
			t.Fatal("misaligned base accepted")
		}
	}
	// Empty views are fine (a node with no entries).
	if v, err := U32(nil); err != nil || v != nil {
		t.Fatalf("empty view: %v, %v", v, err)
	}
}

// Open must refuse to map past EOF — that is the SIGBUS hazard.
func TestOpenRejectsOversizedMap(t *testing.T) {
	if !Supported() {
		t.Skip("mmap unsupported on this platform")
	}
	path := filepath.Join(t.TempDir(), "short.bin")
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := Open(f, 101); err == nil {
		t.Fatal("mapping beyond EOF accepted")
	}
	m, err := Open(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Bytes()) != 100 {
		t.Fatalf("mapped %d bytes, want 100", len(m.Bytes()))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
