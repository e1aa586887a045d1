package graph

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceReadEdgeList is the string-based edge-list parser that
// ReadEdgeList's byte path replaced, kept as the definition the fuzz
// target holds it to: the same accepted inputs, first-appearance IDs,
// error messages and CSR.
func referenceReadEdgeList(r io.Reader, opts *LoadOptions) (*Graph, []int64, error) {
	var (
		edges  []Edge
		ids    = make(map[int64]NodeID)
		labels []int64
	)
	intern := func(label int64) NodeID {
		if id, ok := ids[label]; ok {
			return id
		}
		id := NodeID(len(labels))
		ids[label] = id
		labels = append(labels, label)
		return id
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		if src < 0 || dst < 0 {
			return nil, nil, fmt.Errorf("graph: line %d: negative node label", lineNo)
		}
		edges = append(edges, Edge{intern(src), intern(dst)})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	b := NewBuilder(len(labels))
	if opts != nil && opts.Undirected {
		b.Undirected()
	}
	for _, e := range edges {
		b.AddEdge(e.From, e.To)
	}
	return referenceBuild(b), labels, nil
}

// referenceBuild is the Build that build replaced: one sort of packed
// From<<32|To keys, a compaction, then the same counting pass by target.
func referenceBuild(b *Builder) *Graph {
	keys := make([]uint64, len(b.edges))
	for i, e := range b.edges {
		keys[i] = uint64(e.From)<<32 | uint64(e.To)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	from := func(k uint64) NodeID { return NodeID(k >> 32) }
	to := func(k uint64) NodeID { return NodeID(uint32(k)) }

	g := &Graph{n: b.n, m: int64(len(keys))}
	g.outOff = make([]int64, b.n+1)
	g.inOff = make([]int64, b.n+1)
	g.outTo = make([]int32, len(keys))
	g.inFrom = make([]int32, len(keys))
	for _, k := range keys {
		g.outOff[from(k)+1]++
	}
	for v := int32(0); v < b.n; v++ {
		g.outOff[v+1] += g.outOff[v]
	}
	for i, k := range keys {
		g.outTo[i] = to(k)
	}
	for _, k := range keys {
		g.inOff[to(k)+1]++
	}
	for v := int32(0); v < b.n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	cursor := make([]int64, b.n)
	copy(cursor, g.inOff[:b.n])
	for _, k := range keys {
		g.inFrom[cursor[to(k)]] = from(k)
		cursor[to(k)]++
	}
	return g
}

// sameCSR reports whether a and b hold identical CSR arrays.
func sameCSR(a, b *Graph) bool {
	return a.n == b.n && a.m == b.m &&
		slices.Equal(a.outOff, b.outOff) && slices.Equal(a.outTo, b.outTo) &&
		slices.Equal(a.inOff, b.inOff) && slices.Equal(a.inFrom, b.inFrom)
}

// FuzzReadEdgeList holds ReadEdgeList to referenceReadEdgeList, directed
// and undirected: the same CSR and labels, or the same error text.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n10 20\n")
	f.Add("")
	f.Add("a b\n")
	f.Add("1\n")
	f.Add("9999999999999999999999 1\n")
	f.Add("+5 3\n")
	f.Add("-0 1\n")
	f.Add("00000000000000000000042 7\n7 42\n") // 23 digits, zero-padded
	f.Add("1234567890123456789 1\n")           // 19 digits
	f.Add("0\u00a01\n")
	f.Add("0\u00851\n")
	f.Add("0\v1\n")
	f.Add("0 1\x00\n1\x00 2\n")
	f.Add("# dos\r\n0 1\r\n1 2\r\n")
	f.Add("1 2\n2 3\n3 1\n4000000000 1\n2 4000000000\n")
	f.Add(sparseThenDense)
	f.Add(strings.Repeat("7", 1<<20+1) + " 1\n")
	f.Fuzz(func(t *testing.T, data string) {
		for _, undirected := range []bool{false, true} {
			opts := &LoadOptions{Undirected: undirected}
			g, labels, err := ReadEdgeList(strings.NewReader(data), opts)
			wg, wlabels, werr := referenceReadEdgeList(strings.NewReader(data), opts)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("undirected=%v: err %v, reference err %v", undirected, err, werr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(labels, wlabels) {
				t.Fatalf("undirected=%v: labels %v, reference %v", undirected, labels, wlabels)
			}
			if !sameCSR(g, wg) {
				t.Fatalf("undirected=%v: CSR differs from the reference", undirected)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("parsed graph fails validation: %v", err)
			}
		}
	})
}
