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
}

const (
	// maxFastDigits is the longest field the byte path parses: 18
	// decimal digits stay below 10^18 < 2^63, so it needs no overflow
	// check.
	maxFastDigits = 18
	// denseFloor is the label bound of the dense interning slice before
	// the input read so far raises it.
	denseFloor = 1 << 16
)

// ReadEdgeList parses a whitespace-separated "src dst" edge list in the
// SNAP format. Blank lines and lines whose first non-space byte is '#'
// or '%' are skipped, and fields past the second are ignored. Node
// labels may be arbitrary non-negative integers; they are remapped to
// dense IDs in order of first appearance. It returns the graph and the
// dense-ID -> original-label mapping.
//
// A line of ASCII whitespace and decimal fields of at most 18 digits is
// parsed on its bytes. Any other line (a sign, a longer field, a
// non-ASCII byte, fewer than two fields, any other token) goes through
// parseLine, the general string rule, so both paths give every line the
// same labels or the same error.
func ReadEdgeList(r io.Reader, opts *LoadOptions) (*Graph, []int64, error) {
	undirected := opts != nil && opts.Undirected
	var (
		edges []Edge
		ids   interner
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		ids.read += int64(len(line)) + 1
		src, dst, kind := scanLine(line)
		if kind == lineOther {
			var err error
			if src, dst, kind, err = parseLine(string(line), lineNo); err != nil {
				return nil, nil, err
			}
		}
		if kind == lineSkip {
			continue
		}
		s := ids.id(src)
		d := ids.id(dst)
		edges = append(edges, Edge{s, d})
		if undirected && s != d {
			edges = append(edges, Edge{d, s})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return build(int32(len(ids.labels)), edges), ids.labels, nil
}

// lineKind is what a line of an edge list holds.
type lineKind uint8

const (
	lineEdge  lineKind = iota // two labels
	lineSkip                  // blank or a comment
	lineOther                 // left to parseLine
)

// asciiSpace marks the bytes strings.Fields and strings.TrimSpace treat
// as space within ASCII.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// scanLine reads the common line on its bytes: optional ASCII
// whitespace, then either nothing, a comment, or two decimal fields of
// at most maxFastDigits digits each ending at ASCII whitespace or the
// end of the line. Anything else is lineOther.
func scanLine(line []byte) (src, dst int64, kind lineKind) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '#' || line[i] == '%' {
		return 0, 0, lineSkip
	}
	src, i = scanField(line, i)
	if src < 0 {
		return 0, 0, lineOther
	}
	dst, _ = scanField(line, skipSpace(line, i))
	if dst < 0 {
		return 0, 0, lineOther
	}
	return src, dst, lineEdge
}

func skipSpace(line []byte, i int) int {
	for i < len(line) && asciiSpace[line[i]] {
		i++
	}
	return i
}

// scanField parses the decimal field at line[i:] and returns it with
// the index past it, or -1 when the field is empty, longer than
// maxFastDigits or not all digits.
func scanField(line []byte, i int) (int64, int) {
	j, v := i, int64(0)
	for ; j < len(line) && j-i < maxFastDigits; j++ {
		c := line[j] - '0'
		if c > 9 {
			break
		}
		v = 10*v + int64(c)
	}
	if j == i || j < len(line) && !asciiSpace[line[j]] {
		return -1, j
	}
	return v, j
}

// parseLine is the general rule for one line, on strings: trim Unicode
// space, skip a blank or comment line, split the rest on Unicode space
// and parse the first two fields with strconv.
func parseLine(text string, lineNo int) (src, dst int64, kind lineKind, err error) {
	line := strings.TrimSpace(text)
	if line == "" || line[0] == '#' || line[0] == '%' {
		return 0, 0, lineSkip, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, 0, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
	}
	if src, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
	}
	if dst, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
	}
	if src < 0 || dst < 0 {
		return 0, 0, 0, fmt.Errorf("graph: line %d: negative node label", lineNo)
	}
	return src, dst, lineEdge, nil
}

// interner numbers labels in order of first appearance. A label below
// the bound max(denseFloor, bytes read) is looked up in dense, indexed
// by label and holding ID+1 (0 for unseen), so dense stays within four
// bytes per input byte past the floor. Larger labels go through sparse.
// The bound grows, so a label stored in sparse can later fall inside
// dense; its first lookup there finds it in sparse and copies it over.
type interner struct {
	dense  []NodeID
	sparse map[int64]NodeID
	labels []int64
	read   int64
}

func (t *interner) id(label int64) NodeID {
	if label < int64(len(t.dense)) {
		if id := t.dense[label]; id != 0 {
			return id - 1
		}
	}
	return t.add(label)
}

// add handles a label dense does not hold: it grows dense to cover the
// label if the bound allows, then finds or assigns its ID.
func (t *interner) add(label int64) NodeID {
	if bound := max(t.read, denseFloor); label >= int64(len(t.dense)) && label < bound {
		grown := make([]NodeID, min(max(2*int64(len(t.dense)), label+1), bound))
		copy(grown, t.dense)
		t.dense = grown
	}
	id, seen := t.sparse[label]
	if !seen {
		id = NodeID(len(t.labels))
		t.labels = append(t.labels, label)
	}
	switch {
	case label < int64(len(t.dense)):
		t.dense[label] = id + 1
	case !seen:
		if t.sparse == nil {
			t.sparse = make(map[int64]NodeID)
		}
		t.sparse[label] = id
	}
	return id
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
