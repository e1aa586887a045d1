package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// LoadOptions controls edge-list parsing.
type LoadOptions struct {
	// Undirected inserts both directions for every line,
	// matching the paper's treatment of undirected datasets.
	Undirected bool
	// Comment is the set of line prefixes to skip; defaults to "#" and "%".
	Comment []string
}

func (o *LoadOptions) comments() []string {
	if o == nil || len(o.Comment) == 0 {
		return []string{"#", "%"}
	}
	return o.Comment
}

// ReadEdgeList parses a whitespace-separated "src dst" edge list in the
// SNAP format. Node labels may be arbitrary non-negative integers; they are
// remapped to dense IDs in order of first appearance. It returns the graph
// and the dense-ID -> original-label mapping.
func ReadEdgeList(r io.Reader, opts *LoadOptions) (*Graph, []int64, error) {
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
	comments := opts.comments()
scan:
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		for _, c := range comments {
			if strings.HasPrefix(line, c) {
				continue scan
			}
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
	return b.Build(), labels, nil
}

// LoadEdgeListFile is ReadEdgeList over a file path.
func LoadEdgeListFile(path string, opts *LoadOptions) (*Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadEdgeList(f, opts)
}

// WriteEdgeList emits the graph as "src dst" lines using dense IDs.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var firstErr error
	g.Edges(func(from, to NodeID) bool {
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", from, to); err != nil {
			firstErr = err
			return false
		}
		return true
	})
	if firstErr != nil {
		return firstErr
	}
	return bw.Flush()
}
