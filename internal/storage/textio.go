package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// This file implements a human-readable text format for graph exchange
// (SNAP-style edge lists extended with attributes), so real datasets can
// be imported without the binary tooling.
//
// Format, one record per line, tab- or space-separated, '#' comments:
//
//	graph (un)directed          -- optional header, default undirected
//	node <id> [key=value ...]   -- optional; declares attributes/labels
//	edge <id1> <id2> [key=value ...]
//	<id1> <id2>                 -- bare pair shorthand for edge
//
// Node IDs are arbitrary non-negative integers; they are densified in
// first-appearance order on load. The "label" attribute sets the node
// label.

// WriteText encodes g to w in the text format.
func WriteText(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	dir := "undirected"
	if g.Directed() {
		dir = "directed"
	}
	fmt.Fprintf(bw, "# egocensus text graph\ngraph %s\n", dir)
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		fmt.Fprintf(bw, "node %d%s\n", n, renderAttrs(g.NodeAttrMap(id), g.LabelString(id)))
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		fmt.Fprintf(bw, "edge %d %d%s\n", ed.From, ed.To, renderAttrs(g.EdgeAttrMap(graph.EdgeID(e)), ""))
	}
	return bw.Flush()
}

// renderAttrs renders attrs, plus label under LabelAttr when it is not
// empty, as tab-separated key=value pairs in key order.
func renderAttrs(attrs map[string]string, label string) string {
	if len(attrs) == 0 && label == "" {
		return ""
	}
	keys := make([]string, 0, len(attrs)+1)
	for k := range attrs {
		keys = append(keys, k)
	}
	if label != "" {
		keys = append(keys, graph.LabelAttr)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		v, ok := attrs[k]
		if !ok {
			v = label
		}
		b.WriteByte('\t')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	return b.String()
}

// ReadText decodes a graph from the text format.
func ReadText(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var g *graph.Graph
	ids := map[string]graph.NodeID{}
	ensureGraph := func(directed bool) {
		if g == nil {
			g = graph.New(directed)
		}
	}
	node := func(token string) (graph.NodeID, error) {
		if id, ok := ids[token]; ok {
			return id, nil
		}
		if _, err := strconv.ParseUint(token, 10, 32); err != nil {
			return 0, fmt.Errorf("storage: invalid node id %q", token)
		}
		ensureGraph(false)
		id := g.AddNode()
		ids[token] = id
		return id, nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		applyAttrs := func(set func(k, v string), from int) error {
			for _, f := range fields[from:] {
				eq := strings.IndexByte(f, '=')
				if eq <= 0 {
					return fmt.Errorf("storage: line %d: malformed attribute %q", lineNo, f)
				}
				set(f[:eq], f[eq+1:])
			}
			return nil
		}
		switch fields[0] {
		case "graph":
			if g != nil {
				return nil, fmt.Errorf("storage: line %d: graph header must come first", lineNo)
			}
			if len(fields) != 2 || (fields[1] != "directed" && fields[1] != "undirected") {
				return nil, fmt.Errorf("storage: line %d: want 'graph directed|undirected'", lineNo)
			}
			ensureGraph(fields[1] == "directed")
		case "node":
			if len(fields) < 2 {
				return nil, fmt.Errorf("storage: line %d: node needs an id", lineNo)
			}
			id, err := node(fields[1])
			if err != nil {
				return nil, err
			}
			if err := applyAttrs(func(k, v string) { g.SetNodeAttr(id, k, v) }, 2); err != nil {
				return nil, err
			}
		case "edge":
			if len(fields) < 3 {
				return nil, fmt.Errorf("storage: line %d: edge needs two ids", lineNo)
			}
			if err := addTextEdge(&g, node, fields[1], fields[2], fields[3:], lineNo); err != nil {
				return nil, err
			}
		default:
			// Bare "<id1> <id2>" shorthand.
			if len(fields) < 2 {
				return nil, fmt.Errorf("storage: line %d: unrecognized record %q", lineNo, fields[0])
			}
			if err := addTextEdge(&g, node, fields[0], fields[1], fields[2:], lineNo); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		g = graph.New(false)
	}
	return g, nil
}

// addTextEdge resolves both endpoints (which may lazily create the graph,
// hence the pointer-to-pointer) and adds the edge with its attributes.
func addTextEdge(gp **graph.Graph, node func(string) (graph.NodeID, error), a, b string, attrs []string, lineNo int) error {
	from, err := node(a)
	if err != nil {
		return err
	}
	to, err := node(b)
	if err != nil {
		return err
	}
	g := *gp
	e := g.AddEdge(from, to)
	for _, f := range attrs {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return fmt.Errorf("storage: line %d: malformed attribute %q", lineNo, f)
		}
		g.SetEdgeAttr(e, f[:eq], f[eq+1:])
	}
	return nil
}

// SaveText writes g to path in the text format.
func SaveText(path string, g *graph.Graph) error {
	return SaveTextFS(fault.OS{}, path, g)
}

// SaveTextFS is SaveText through an explicit filesystem seam, so fault
// injection covers text exports like every other storage write path.
func SaveTextFS(fsys fault.FS, path string, g *graph.Graph) (err error) {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return WriteText(f, g)
}

// LoadText reads a text-format graph from path.
func LoadText(path string) (*graph.Graph, error) {
	return LoadTextFS(fault.OS{}, path)
}

// LoadTextFS is LoadText through an explicit filesystem seam.
func LoadTextFS(fsys fault.FS, path string) (*graph.Graph, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadText(f)
}
