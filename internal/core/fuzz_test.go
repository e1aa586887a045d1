package core

import (
	"bytes"
	"testing"
)

// buildSerialized returns a serialized small index for corpus seeding.
func buildSerialized(t testing.TB) []byte {
	t.Helper()
	g := randomGraph(20, 100, 1)
	x, err := Build(g, &Options{Eps: 0.1, Seed: 1, Enhance: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadIndex: arbitrary bytes must never panic the deserializer; they
// either parse (only possible for a structurally valid file) or error.
// Each input is also tried with its checksums resealed, so mutations
// reach the structural and entry checks behind them.
func FuzzReadIndex(f *testing.F) {
	valid := buildSerialized(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SLIX"))
	f.Add(valid[:40])
	corrupted := append([]byte(nil), valid...)
	corrupted[50] ^= 0xff
	f.Add(corrupted)
	// A file whose first mark is out of range: the marks bounds check
	// must reject it rather than let queries index past a node's
	// entries. (The corpus index was built with Enhance, so the marks
	// region is non-empty.)
	badMark := append([]byte(nil), valid...)
	if off := marksRegionOffset(20); off+4 <= len(badMark) {
		badMark[off], badMark[off+1], badMark[off+2], badMark[off+3] = 0xff, 0xff, 0xff, 0x7f
	}
	f.Add(resealSLIX(badMark))
	f.Fuzz(func(t *testing.T, data []byte) {
		// nil graph skips only the node-count cross-check; all structural
		// validation still runs.
		_, _ = ReadIndex(bytes.NewReader(data), nil)
		_, _ = ReadIndex(bytes.NewReader(resealSLIX(data)), nil)
	})
}

// Every truncation of a valid index file must fail cleanly (no panic, no
// silent success).
func TestReadIndexTruncations(t *testing.T) {
	valid := buildSerialized(t)
	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := ReadIndex(bytes.NewReader(valid[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	if _, err := ReadIndex(bytes.NewReader(valid), nil); err != nil {
		t.Fatalf("full file rejected: %v", err)
	}
}

// Bit flips in the header region must never panic.
func TestReadIndexHeaderBitFlips(t *testing.T) {
	valid := buildSerialized(t)
	for pos := 0; pos < 92 && pos < len(valid); pos++ {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			mutated := append([]byte(nil), valid...)
			mutated[pos] ^= mask
			_, _ = ReadIndex(bytes.NewReader(mutated), nil) // must not panic
		}
	}
}
