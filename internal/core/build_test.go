package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"sling/internal/extsort"
	"sling/internal/workload"
)

// indexHash is a SHA-256 over the stored index: d̃, off, keys, vals,
// markOff and marks, each prefixed by its length.
func indexHash(x *Index) string {
	h := sha256.New()
	var buf []byte
	u64s := func(n int, at func(i int) uint64) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(n))
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, at(i))
		}
		h.Write(buf)
	}
	u64s(len(x.d), func(i int) uint64 { return math.Float64bits(x.d[i]) })
	u64s(len(x.off), func(i int) uint64 { return uint64(x.off[i]) })
	u64s(len(x.keys), func(i int) uint64 { return uint64(x.keys[i]) })
	u64s(len(x.vals), func(i int) uint64 { return uint64(math.Float32bits(x.vals[i])) })
	u64s(len(x.markOff), func(i int) uint64 { return uint64(x.markOff[i]) })
	u64s(len(x.marks), func(i int) uint64 { return uint64(x.marks[i]) })
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins the built index bit for bit. The hash covers the
// Wiki-Vote stand-in at ε = 0.1, seed 1, with Enhance on; every worker
// count and the spilling out-of-core build must reproduce it. Unlike
// TestDeterministicAcrossWorkers, which compares two worker counts with
// each other, it also catches a change that moves every d̃ or HP the
// same way.
func TestBuildGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash recorded on amd64; other targets may fuse multiply-adds")
	}
	const want = "ba1549540a46c44e113f5030378e1ef9849f9c64f4e29c4950c480362fdcd063"
	spec, ok := workload.ByName("Wiki-Vote")
	if !ok {
		t.Fatal("no Wiki-Vote stand-in")
	}
	g := spec.Generate(1)
	opt := Options{Eps: 0.1, Seed: 1, Enhance: true}
	var st1 BuildStats
	for _, workers := range []int{1, 2, 3, 7} {
		o := opt
		o.Workers = workers
		x, st, err := BuildWithStats(g, &o)
		if err != nil {
			t.Fatal(err)
		}
		if got := indexHash(x); got != want {
			t.Errorf("workers=%d: index hash %s, want %s", workers, got, want)
		}
		if workers == 1 {
			st1 = st
		} else if st != st1 {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, st, st1)
		}
	}

	// The minimum budget holds ~3276 records, far fewer than this index
	// stores, so the out-of-core build spills.
	ooc, err := BuildOutOfCore(g, &opt, OutOfCoreOptions{Dir: t.TempDir(), MemBudget: extsort.MinMemBudget})
	if err != nil {
		t.Fatal(err)
	}
	if n := ooc.NumEntries(); n < 4000 {
		t.Fatalf("index too small (%d entries) to force spills", n)
	}
	if got := indexHash(ooc); got != want {
		t.Errorf("out-of-core: index hash %s, want %s", got, want)
	}
}

// With one worker the build's passes run on the calling goroutine: a
// single-worker build, such as the dynamic tier's background rebuild,
// must not take a second core from the readers beside it.
func TestForEachOneWorkerInline(t *testing.T) {
	before := runtime.NumGoroutine()
	err := ForEach(context.Background(), 50, 1, nil, func(i int, _ struct{}) error {
		if n := runtime.NumGoroutine(); n > before {
			return fmt.Errorf("item %d ran with %d goroutines, %d before ForEach", i, n, before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
