package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line).
// Lines starting with '#' or '%' and blank lines are ignored. Duplicate
// edges and self loops in the input are silently skipped (common in raw
// SNAP-style dumps); malformed lines and vertex ids outside [0, MaxVertex]
// are an error. The graph equals AddEdge over the lines in order, built in
// one pass by build.
func ReadEdgeList(r io.Reader) (*Undirected, error) {
	var pairs []int32
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		a, rest := field(line)
		b, _ := field(rest)
		if len(b) == 0 {
			return nil, fmt.Errorf("graph: line %d: expected two vertex ids, got %q", lineNo, line)
		}
		u, err := parseVertex(a)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		v, err := parseVertex(b)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if u != v {
			pairs = append(pairs, u, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return build(pairs), nil
}

// field splits off the first whitespace-separated field of b.
func field(b []byte) (f, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// parseVertex parses a decimal vertex id in [0, MaxVertex]. The string
// conversion does not escape, so it does not allocate.
func parseVertex(b []byte) (int32, error) {
	v, err := strconv.Atoi(string(b))
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q: %w", b, err)
	}
	if v < 0 || v > MaxVertex {
		return 0, fmt.Errorf("vertex %s: %w", b, ErrVertexRange)
	}
	return int32(v), nil
}

// build returns the graph of the edges (pairs[2i], pairs[2i+1]), which hold
// no self loops. It equals AddEdge over the edges in order with repeated
// edges skipped: the same adjacency order, hubs and edge table contents.
// Degrees are counted first, so every adjacency slice is carved at its
// final capacity from one allocation, hubs are marked up front and the edge
// table is sized once; then one pass over the edges fills them.
func build(pairs []int32) *Undirected {
	n := 0
	for _, v := range pairs {
		n = max(n, int(v)+1)
	}
	deg := make([]int32, n) // repeated edges and self loops counted too
	for _, v := range pairs {
		deg[v]++
	}
	g := &Undirected{adj: make([][]int32, n), hub: make([]bool, n)}
	buf := make([]int32, len(pairs))
	off := 0
	for v, d := range deg {
		if d > 0 {
			g.adj[v] = buf[off : off : off+int(d)]
			off += int(d)
			g.hub[v] = d > IndexThreshold
		}
	}
	hubEdges := 0
	for k := 0; k < len(pairs); k += 2 {
		if g.hub[pairs[k]] || g.hub[pairs[k+1]] {
			hubEdges++
		}
	}
	g.idx.reserve(hubEdges)
	for k := 0; k < len(pairs); k += 2 {
		g.insert(int(pairs[k]), int(pairs[k+1]))
	}
	// Repeated edges can leave a vertex marked a hub at a degree AddEdge
	// would never have promoted it at: demote it and re-index.
	demoted := false
	for v := range g.adj {
		if g.hub[v] && len(g.adj[v]) <= IndexThreshold {
			g.hub[v], demoted = false, true
		}
	}
	if demoted {
		hubEdges = 0
		g.ForEachEdge(func(u, v int) {
			if g.hub[u] || g.hub[v] {
				hubEdges++
			}
		})
		g.idx = arcIndex{}
		g.idx.reserve(hubEdges)
		for v := range g.adj {
			if g.hub[v] {
				g.index(v)
			}
		}
	}
	return g
}

// WriteEdgeList writes the graph as a "u v" per line edge list with a
// header comment recording vertex and edge counts.
func WriteEdgeList(w io.Writer, g *Undirected) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# n=%d m=%d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.ForEachEdge(func(u, v int) {
		if werr == nil {
			_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
