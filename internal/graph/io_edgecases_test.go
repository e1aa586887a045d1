package graph

import (
	"fmt"
	"strings"
	"testing"
)

// sparseThenDense names label 70000 before the input read so far lets
// the dense slice reach it, and again once it does.
var sparseThenDense = "0 70000\n" + strings.Repeat("1 2\n", 20000) + "70000 3\n"

// TestReadEdgeListTable is the table-driven edge-case sweep for the
// SNAP-format loader: every odd input shape a real edge-list file shows
// up with, with the exact graph (or error) it must produce.
func TestReadEdgeListTable(t *testing.T) {
	cases := []struct {
		name string
		in   string
		opts *LoadOptions
		// expectations (ignored when wantErr is set)
		wantErr    bool
		nodes      int
		edges      int
		labels     []int64
		hasEdge    [][2]int64 // in original labels
		missesEdge [][2]int64
	}{
		{
			name:   "hash comments and blank lines",
			in:     "# header\n\n0 1\n\n# trailing comment\n1 2\n\n",
			nodes:  3,
			edges:  2,
			labels: []int64{0, 1, 2},
		},
		{
			name:   "percent comments",
			in:     "% matrix-market style\n3 4\n",
			nodes:  2,
			edges:  1,
			labels: []int64{3, 4},
		},
		{
			name:  "duplicate edges dedup",
			in:    "0 1\n0 1\n0 1\n1 0\n",
			nodes: 2,
			edges: 2, // 0->1 kept once, 1->0 kept
		},
		{
			name:    "self-loops kept",
			in:      "5 5\n5 6\n",
			nodes:   2,
			edges:   2,
			labels:  []int64{5, 6},
			hasEdge: [][2]int64{{5, 5}, {5, 6}},
		},
		{
			name:  "CRLF line endings",
			in:    "# dos file\r\n0 1\r\n1 2\r\n",
			nodes: 3,
			edges: 2,
		},
		{
			name:  "tabs and extra whitespace",
			in:    "  0\t1  \n\t7   9\t\n",
			nodes: 4,
			edges: 2,
		},
		{
			name:  "extra fields ignored",
			in:    "0 1 1.5 extra\n1 2 0.3\n",
			nodes: 3,
			edges: 2,
		},
		{
			name:   "labels remapped in first-appearance order",
			in:     "1000 7\n7 1000\n3 1000\n",
			nodes:  3,
			labels: []int64{1000, 7, 3},
			edges:  3,
		},
		{
			name:  "undirected doubles edges",
			in:    "0 1\n1 2\n",
			opts:  &LoadOptions{Undirected: true},
			nodes: 3,
			edges: 4,
			hasEdge: [][2]int64{
				{0, 1}, {1, 0}, {1, 2}, {2, 1},
			},
		},
		{
			name:       "undirected keeps self-loop single",
			in:         "0 0\n",
			opts:       &LoadOptions{Undirected: true},
			nodes:      1,
			edges:      1,
			hasEdge:    [][2]int64{{0, 0}},
			missesEdge: nil,
		},
		{
			name:   "signs and leading zeros",
			in:     "+5 3\n-0 0005\n",
			nodes:  3,
			edges:  2,
			labels: []int64{5, 3, 0},
		},
		{
			name:   "labels of 19 and 23 digits",
			in:     "1234567890123456789 00000000000000000000042\n",
			nodes:  2,
			edges:  1,
			labels: []int64{1234567890123456789, 42},
		},
		{
			name:   "unicode space separates fields",
			in:     "0\u00a01\n1\u00852 x\n\u00a0# comment\n",
			nodes:  3,
			edges:  2,
			labels: []int64{0, 1, 2},
		},
		{
			name:   "label past the dense bound after small ones",
			in:     "1 2\n2 3\n4000000000 1\n2 4000000000\n",
			nodes:  4,
			edges:  4,
			labels: []int64{1, 2, 3, 4000000000},
		},
		{
			name:   "label past the bound comes back inside it",
			in:     sparseThenDense,
			nodes:  5,
			edges:  3,
			labels: []int64{0, 70000, 1, 2, 3},
		},
		{name: "single field", in: "0\n", wantErr: true},
		{name: "label out of int64 range", in: "9223372036854775808 1\n", wantErr: true},
		{name: "NUL inside a field", in: "0\x001\n", wantErr: true},
		{name: "bad source token", in: "x 1\n", wantErr: true},
		{name: "bad target token", in: "1 y\n", wantErr: true},
		{name: "float label", in: "1.5 2\n", wantErr: true},
		{name: "negative label", in: "-1 2\n", wantErr: true},
		{name: "bad line after good ones", in: "0 1\n1 2\nbroken\n", wantErr: true},
		{
			name:  "empty input is an empty graph",
			in:    "",
			nodes: 0,
			edges: 0,
		},
		{
			name:  "comments only",
			in:    "# a\n% b\n\n",
			nodes: 0,
			edges: 0,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g, labels, err := ReadEdgeList(strings.NewReader(tc.in), tc.opts)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got %v", g)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("invalid graph: %v", err)
			}
			if g.NumNodes() != tc.nodes || g.NumEdges() != tc.edges {
				t.Fatalf("got n=%d m=%d, want n=%d m=%d",
					g.NumNodes(), g.NumEdges(), tc.nodes, tc.edges)
			}
			if tc.labels != nil {
				if len(labels) != len(tc.labels) {
					t.Fatalf("labels %v, want %v", labels, tc.labels)
				}
				for i := range tc.labels {
					if labels[i] != tc.labels[i] {
						t.Fatalf("labels %v, want %v", labels, tc.labels)
					}
				}
			}
			byLabel := make(map[int64]NodeID, len(labels))
			for id, l := range labels {
				byLabel[l] = NodeID(id)
			}
			for _, e := range tc.hasEdge {
				if !g.HasEdge(byLabel[e[0]], byLabel[e[1]]) {
					t.Errorf("edge %d->%d missing", e[0], e[1])
				}
			}
			for _, e := range tc.missesEdge {
				if g.HasEdge(byLabel[e[0]], byLabel[e[1]]) {
					t.Errorf("edge %d->%d unexpectedly present", e[0], e[1])
				}
			}
		})
	}
}

// TestReadEdgeListAllocs pins the parse to a number of allocations that
// does not grow with its lines. The same 1,000 nodes in 1k and in 100k
// distinct edges may differ only by the edge slice's extra growth steps,
// where the string parser allocated twice per line.
func TestReadEdgeListAllocs(t *testing.T) {
	allocs := func(lines int) float64 {
		var sb strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&sb, "%d\t%d\n", i%1000, (i+13*(i/1000)+1)%1000)
		}
		in := sb.String()
		return testing.AllocsPerRun(3, func() {
			if _, _, err := ReadEdgeList(strings.NewReader(in), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	growth := func(n int) (steps float64) {
		var edges []Edge
		for i := 0; i < n; i++ {
			if len(edges) == cap(edges) {
				steps++
			}
			edges = append(edges, Edge{})
		}
		return steps
	}
	small, large := allocs(1000), allocs(100000)
	if extra := growth(100000) - growth(1000); large-small > extra {
		t.Fatalf("allocations: %v for 1k lines, %v for 100k, want at most %v more", small, large, extra)
	}
}
