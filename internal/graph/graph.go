// Package graph provides the dynamic undirected graph substrate used by all
// core-maintenance algorithms in this repository.
//
// Vertices are dense integers in [0, MaxVertex]. Each vertex keeps its
// neighbors in an adjacency slice, in insertion order perturbed by
// swap-removes. Membership and removal take one of two paths, chosen by the
// observed degree:
//
//   - An edge between two vertices of degree at most IndexThreshold is found
//     by a linear scan of the shorter adjacency slice: a few contiguous
//     int32 compares, with no index to maintain.
//   - An edge with a hub endpoint (one whose degree has crossed
//     IndexThreshold) has an entry in one graph-wide open-addressing table,
//     keyed by the packed endpoint pair and holding the edge's slot in each
//     hub endpoint's adjacency slice. HasEdge, the duplicate check of
//     AddEdge and the lookup of RemoveEdge each cost one probe.
//
// Power-law and sparse graphs keep most edges out of the table, and
// neighbor iteration is an allocation-free slice walk either way.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrSelfLoop is returned when an edge (v, v) is added.
var ErrSelfLoop = errors.New("graph: self loops are not supported")

// ErrDuplicateEdge is returned when an already-present edge is added.
var ErrDuplicateEdge = errors.New("graph: edge already present")

// ErrMissingEdge is returned when a non-existent edge is removed.
var ErrMissingEdge = errors.New("graph: edge not present")

// ErrVertexRange is returned for a vertex id that is negative or above
// MaxVertex.
var ErrVertexRange = errors.New("graph: vertex id must be in [0, 2^31-1]")

// MaxVertex is the largest vertex id: adjacency slices store int32 ids and
// the edge table packs an endpoint pair into one uint64.
const MaxVertex = math.MaxInt32

// IndexThreshold is the degree above which a vertex becomes a hub: every
// edge it takes part in gets an entry in the graph's edge table. Up to this
// degree a linear scan of the adjacency slice is cheaper than a hash probe
// and needs no table entry. Promotion is sticky: once a hub, always a hub,
// so a vertex oscillating around the threshold never thrashes (re)indexing
// its edges.
const IndexThreshold = 32

// Undirected is a mutable simple undirected graph (no self loops, no
// parallel edges). The zero value is an empty graph ready to use.
//
// Undirected is not safe for concurrent mutation; wrap it (or use the public
// kcore API) if you need synchronization.
type Undirected struct {
	adj [][]int32 // adjacency lists, insertion ordered
	hub []bool    // hub[v]: v's degree has crossed IndexThreshold (sticky)
	idx arcIndex  // one entry per edge with at least one hub endpoint
	m   int       // number of edges
}

// New returns a graph with n isolated vertices 0..n-1.
func New(n int) *Undirected {
	g := &Undirected{}
	g.EnsureVertex(n - 1)
	return g
}

// NumVertices reports the number of vertices (max vertex id + 1).
func (g *Undirected) NumVertices() int { return len(g.adj) }

// NumEdges reports the number of edges.
func (g *Undirected) NumEdges() int { return g.m }

// EnsureVertex grows the vertex set so that v is a valid vertex.
// It is a no-op when v already exists or is negative.
func (g *Undirected) EnsureVertex(v int) {
	for len(g.adj) <= v {
		g.adj = append(g.adj, nil)
		g.hub = append(g.hub, false)
	}
}

// AddVertex appends a fresh isolated vertex and returns its id.
func (g *Undirected) AddVertex() int {
	g.adj = append(g.adj, nil)
	g.hub = append(g.hub, false)
	return len(g.adj) - 1
}

// HasVertex reports whether v is a valid vertex id.
func (g *Undirected) HasVertex(v int) bool { return v >= 0 && v < len(g.adj) }

// Degree returns the degree of v (0 for unknown vertices).
func (g *Undirected) Degree(v int) int {
	if !g.HasVertex(v) {
		return 0
	}
	return len(g.adj[v])
}

// HasEdge reports whether the edge (u, v) is present.
func (g *Undirected) HasEdge(u, v int) bool {
	if !g.HasVertex(u) || !g.HasVertex(v) || u == v {
		return false
	}
	if g.hub[u] || g.hub[v] {
		key, _ := pack(u, v)
		_, ok := g.idx.find(key)
		return ok
	}
	// Arcs are mirrored, so either endpoint answers: scan the shorter list.
	if len(g.adj[v]) < len(g.adj[u]) {
		u, v = v, u
	}
	return slices.Index(g.adj[u], int32(v)) >= 0
}

// AddEdge inserts the undirected edge (u, v), growing the vertex set as
// needed. It returns ErrSelfLoop, ErrVertexRange, or ErrDuplicateEdge on
// invalid input.
func (g *Undirected) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u > MaxVertex || v > MaxVertex {
		return ErrVertexRange
	}
	if u == v {
		return ErrSelfLoop
	}
	g.EnsureVertex(max(u, v))
	if !g.insert(u, v) {
		return ErrDuplicateEdge
	}
	if !g.hub[u] && len(g.adj[u]) > IndexThreshold {
		g.promote(u)
	}
	if !g.hub[v] && len(g.adj[v]) > IndexThreshold {
		g.promote(v)
	}
	return nil
}

// insert adds the edge (u, v) between existing vertices unless it is
// present, and reports whether it did. The duplicate check of an edge with
// a hub endpoint lands on the slot its new table entry takes.
func (g *Undirected) insert(u, v int) bool {
	if g.hub[u] || g.hub[v] {
		g.idx.reserve(1)
		key, su := pack(u, v)
		i, ok := g.idx.find(key)
		if ok {
			return false
		}
		var slot [2]int32
		slot[su], slot[1-su] = g.nextSlot(u), g.nextSlot(v)
		g.idx.put(i, key, slot)
	} else if g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
	return true
}

// nextSlot is the slot an arc appended to adj[u] takes, as the edge table
// records it: -1 when u is not a hub.
func (g *Undirected) nextSlot(u int) int32 {
	if g.hub[u] {
		return int32(len(g.adj[u]))
	}
	return -1
}

// promote makes u a hub and records its slot in the table entry of each of
// its edges.
func (g *Undirected) promote(u int) {
	g.hub[u] = true
	g.idx.reserve(len(g.adj[u]))
	g.index(u)
}

// index records u's slot in the table entry of each of its edges, creating
// the entries that do not exist yet. The table must have room for them.
func (g *Undirected) index(u int) {
	for i, w := range g.adj[u] {
		key, su := pack(u, int(w))
		j, ok := g.idx.find(key)
		if !ok {
			g.idx.put(j, key, [2]int32{-1, -1})
		}
		g.idx.tab[j].slot[su] = int32(i)
	}
}

// RemoveEdge deletes the undirected edge (u, v). It returns ErrMissingEdge
// when the edge is absent.
func (g *Undirected) RemoveEdge(u, v int) error {
	if !g.HasVertex(u) || !g.HasVertex(v) || u == v {
		return ErrMissingEdge
	}
	var iu, iv int
	if g.hub[u] || g.hub[v] {
		key, su := pack(u, v)
		j, ok := g.idx.find(key)
		if !ok {
			return ErrMissingEdge
		}
		slot := g.idx.tab[j].slot
		g.idx.del(j)
		iu, iv = int(slot[su]), int(slot[1-su])
		if iu < 0 {
			iu = slices.Index(g.adj[u], int32(v))
		}
		if iv < 0 {
			iv = slices.Index(g.adj[v], int32(u))
		}
	} else {
		if iu = slices.Index(g.adj[u], int32(v)); iu < 0 {
			return ErrMissingEdge
		}
		iv = slices.Index(g.adj[v], int32(u))
	}
	g.removeArc(u, iu)
	g.removeArc(v, iv)
	g.m--
	return nil
}

// removeArc swap-removes slot i of adj[u]: the last neighbor fills the
// vacated slot, and when u is a hub the moved arc's table entry is
// repointed.
func (g *Undirected) removeArc(u, i int) {
	a := g.adj[u]
	last := len(a) - 1
	if i != last {
		w := a[last]
		a[i] = w
		if g.hub[u] {
			key, su := pack(u, int(w))
			j, _ := g.idx.find(key)
			g.idx.tab[j].slot[su] = int32(i)
		}
	}
	g.adj[u] = a[:last]
}

// Neighbors returns the adjacency list of v as int32 ids.
//
// Aliasing contract: the returned slice aliases the graph's internal
// storage and is valid only until the next mutation of the graph. Callers
// must not modify it, and must not add or remove edges while iterating it —
// a removal swap-moves the last neighbor into the vacated slot (reordering
// and shrinking the slice in place), and an insertion may reallocate it.
// Use AppendNeighbors for a copy that survives mutation.
func (g *Undirected) Neighbors(v int) []int32 {
	if !g.HasVertex(v) {
		return nil
	}
	return g.adj[v]
}

// AppendNeighbors appends the neighbors of v to dst and returns it. The
// result is safe against subsequent graph mutation.
func (g *Undirected) AppendNeighbors(dst []int, v int) []int {
	for _, w := range g.Neighbors(v) {
		dst = append(dst, int(w))
	}
	return dst
}

// ForEachEdge invokes fn(u, v) once per edge with u < v. Iteration order is
// deterministic given the mutation history. fn must not mutate the graph.
func (g *Undirected) ForEachEdge(fn func(u, v int)) {
	for u := range g.adj {
		for _, w := range g.adj[u] {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// Edges returns all edges as [2]int pairs with u < v.
func (g *Undirected) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	g.ForEachEdge(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

// MaxDegree returns the maximum vertex degree (0 for empty graphs).
func (g *Undirected) MaxDegree() int {
	md := 0
	for v := range g.adj {
		if len(g.adj[v]) > md {
			md = len(g.adj[v])
		}
	}
	return md
}

// AvgDegree returns 2m/n, the average degree (0 for empty graphs).
func (g *Undirected) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// Clone returns a deep copy of the graph.
func (g *Undirected) Clone() *Undirected {
	c := &Undirected{
		adj: make([][]int32, len(g.adj)),
		hub: slices.Clone(g.hub),
		idx: arcIndex{tab: slices.Clone(g.idx.tab), n: g.idx.n, shift: g.idx.shift},
		m:   g.m,
	}
	for v := range g.adj {
		if len(g.adj[v]) > 0 {
			c.adj[v] = append([]int32(nil), g.adj[v]...)
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v] true). Vertex ids are preserved; vertices outside keep become
// isolated.
func (g *Undirected) InducedSubgraph(keep []bool) *Undirected {
	s := New(g.NumVertices())
	g.ForEachEdge(func(u, v int) {
		if u < len(keep) && v < len(keep) && keep[u] && keep[v] {
			if err := s.AddEdge(u, v); err != nil {
				panic(fmt.Sprintf("graph: induced subgraph internal error: %v", err))
			}
		}
	})
	return s
}

// Equal reports whether g and h have the same vertex count and edge set.
func (g *Undirected) Equal(h *Undirected) bool {
	if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return false
	}
	equal := true
	g.ForEachEdge(func(u, v int) {
		if !h.HasEdge(u, v) {
			equal = false
		}
	})
	return equal
}
