package extsort

import (
	"os"
	"testing"
	"testing/quick"

	"sling/internal/rng"
)

func drain(t *testing.T, it *Iterator) []Record {
	t.Helper()
	var out []Record
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func randomRecords(n int, seed uint64) []Record {
	r := rng.New(seed)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Node: int32(r.Intn(100)),
			Key:  r.Uint64n(1000),
			Val:  r.Float64(),
		}
	}
	return recs
}

func checkSorted(t *testing.T, recs []Record) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if recs[i].Less(recs[i-1]) {
			t.Fatalf("records %d and %d out of order: %+v > %+v", i-1, i, recs[i-1], recs[i])
		}
	}
}

func recordMultiset(recs []Record) map[Record]int {
	m := make(map[Record]int, len(recs))
	for _, r := range recs {
		m[r]++
	}
	return m
}

func TestRejectsTinyBudget(t *testing.T) {
	if _, err := New(t.TempDir(), 100); err == nil {
		t.Fatal("tiny budget accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	s, err := New(t.TempDir(), MinMemBudget)
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	if out := drain(t, it); len(out) != 0 {
		t.Fatalf("empty sorter produced %d records", len(out))
	}
}

func TestInMemoryPath(t *testing.T) {
	s, err := New(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	in := randomRecords(1000, 1)
	for _, r := range in {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.spills != 0 {
		t.Fatalf("unexpected spills: %d", s.spills)
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	checkSorted(t, out)
	if len(out) != len(in) {
		t.Fatalf("lost records: %d -> %d", len(in), len(out))
	}
}

func TestSpillingPath(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, MinMemBudget) // 64 KiB => ~3276 records per run
	if err != nil {
		t.Fatal(err)
	}
	in := randomRecords(20000, 2)
	for _, r := range in {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.spills < 2 {
		t.Fatalf("expected multiple spills, got %d", s.spills)
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	checkSorted(t, out)
	want := recordMultiset(in)
	got := recordMultiset(out)
	if len(want) != len(got) {
		t.Fatal("multiset size mismatch")
	}
	for r, c := range want {
		if got[r] != c {
			t.Fatalf("record %+v count %d != %d", r, got[r], c)
		}
	}
}

func TestSpillFilesRemovedOnClose(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, MinMemBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range randomRecords(20000, 3) {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	drain(t, it)
	entries, err := readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill files left behind: %v", entries)
	}
}

func readDir(dir string) ([]string, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Readdirnames(-1)
}

func TestAddAfterSortFails(t *testing.T) {
	s, err := New(t.TempDir(), MinMemBudget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Record{}); err == nil {
		t.Fatal("Add after Sort accepted")
	}
	if _, err := s.Sort(); err == nil {
		t.Fatal("double Sort accepted")
	}
}

func TestDuplicatesPreserved(t *testing.T) {
	s, err := New(t.TempDir(), MinMemBudget)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Node: 5, Key: 42, Val: 0.5}
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	if len(out) != n {
		t.Fatalf("duplicate records lost: %d -> %d", n, len(out))
	}
}

// Property: for any record multiset and (small) budget, the output is the
// sorted permutation of the input.
func TestPropertySortedPermutation(t *testing.T) {
	f := func(seed uint64, countRaw uint16) bool {
		count := int(countRaw % 5000)
		in := randomRecords(count, seed)
		s, err := New(t.TempDir(), MinMemBudget)
		if err != nil {
			return false
		}
		for _, r := range in {
			if err := s.Add(r); err != nil {
				return false
			}
		}
		it, err := s.Sort()
		if err != nil {
			return false
		}
		var out []Record
		for {
			r, ok, err := it.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
		it.Close()
		if len(out) != len(in) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].Less(out[i-1]) {
				return false
			}
		}
		want := recordMultiset(in)
		for r, c := range recordMultiset(out) {
			if want[r] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{Node: 0, Key: 0, Val: 0},
		{Node: -1, Key: 1<<64 - 1, Val: -1.5},
		{Node: 1 << 30, Key: 42, Val: 3.14159},
	}
	var buf [recordBytes]byte
	for _, r := range recs {
		encode(r, buf[:])
		if got := decode(buf[:]); got != r {
			t.Fatalf("round trip changed %+v -> %+v", r, got)
		}
	}
}

func BenchmarkSortSpilling(b *testing.B) {
	in := randomRecords(50000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(b.TempDir(), MinMemBudget)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range in {
			if err := s.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		it.Close()
	}
}
