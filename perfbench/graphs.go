package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"sling"
	"sling/internal/workload"
)

// standIn writes the named Table-3 stand-in (fixed generator seed) as an
// edge list and loads it back the way every serving path does: the
// loader renumbers nodes by first appearance, so requests use the edge
// list's labels and the benchmark's copy of the graph matches the
// program's.
func (r *run) standIn(name string) (path string, g *sling.Graph, labels []int64, err error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return "", nil, nil, fmt.Errorf("unknown stand-in %q", name)
	}
	path = filepath.Join(r.work, name+".txt")
	f, err := os.Create(path)
	if err != nil {
		return "", nil, nil, err
	}
	w := bufio.NewWriter(f)
	err = spec.Generate(1).WriteEdgeList(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", nil, nil, fmt.Errorf("writing %s: %w", path, err)
	}
	g, labels, err = sling.LoadEdgeListFile(path, !spec.Directed)
	if err != nil {
		return "", nil, nil, err
	}
	r.env.Params["graph"] = name
	r.env.Params["nodes"] = g.NumNodes()
	r.env.Params["edges"] = g.NumEdges()
	return path, g, labels, nil
}

// denseMap inverts a label mapping.
func denseMap(labels []int64) map[int64]sling.NodeID {
	m := make(map[int64]sling.NodeID, len(labels))
	for id, l := range labels {
		m[l] = sling.NodeID(id)
	}
	return m
}

// countWriter counts bytes written to it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// serializedBytes is the size WriteTo produces for ix.
func serializedBytes(ix *sling.Index) (int64, error) {
	var w countWriter
	if _, err := ix.WriteTo(&w); err != nil {
		return 0, err
	}
	return w.n, nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
