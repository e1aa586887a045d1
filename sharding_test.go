package sling

import (
	"math"
	"testing"
)

// TestShardSliceRejectsMalformedFragment pins the ShardBackend input
// check: SourceSlice and TopSlice answer a fragment that no gather could
// have produced with an error instead of panicking or propagating it,
// and still accept a genuine one.
func TestShardSliceRejectsMalformedFragment(t *testing.T) {
	ix, err := Build(testGraph(40, 200, 5), WithEps(0.08), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	n := ix.Graph().NumNodes()
	good, err := ix.Fragment(bg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SourceSlice(bg, good, 0, n); err != nil {
		t.Fatalf("SourceSlice rejected a genuine fragment: %v", err)
	}
	if _, err := ix.TopSlice(bg, good, 5, 3, 0, n); err != nil {
		t.Fatalf("TopSlice rejected a genuine fragment: %v", err)
	}
	bad := map[string]*Fragment{
		"nil":             nil,
		"short vals":      {Keys: []uint64{0, 1}, Vals: []float64{0.5}},
		"node beyond":     {Keys: []uint64{uint64(n)}, Vals: []float64{0.5}},
		"huge step":       {Keys: []uint64{1 << 62}, Vals: []float64{0.5}},
		"steps alternate": {Keys: []uint64{2 << 32, 1<<32 | 1, 2<<32 | 2}, Vals: []float64{0.5, 0.5, 0.5}},
		"duplicate key":   {Keys: []uint64{1, 1}, Vals: []float64{0.5, 0.5}},
		"negative val":    {Keys: []uint64{0}, Vals: []float64{-0.5}},
		"val above one":   {Keys: []uint64{0}, Vals: []float64{1.5}},
		"NaN val":         {Keys: []uint64{0}, Vals: []float64{math.NaN()}},
		"Inf val":         {Keys: []uint64{0}, Vals: []float64{math.Inf(1)}},
	}
	for name, f := range bad {
		if _, err := ix.SourceSlice(bg, f, 0, n); err == nil {
			t.Errorf("SourceSlice accepted the %s fragment", name)
		}
		if _, err := ix.TopSlice(bg, f, 5, -1, 0, n); err == nil {
			t.Errorf("TopSlice accepted the %s fragment", name)
		}
	}
}
