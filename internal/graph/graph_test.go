package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	var g Undirected
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero value not empty: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.HasEdge(0, 1) {
		t.Fatal("HasEdge on empty graph")
	}
	if g.Degree(5) != 0 {
		t.Fatal("Degree of unknown vertex should be 0")
	}
	if g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("degenerate degree stats wrong")
	}
}

func TestNewAllocatesVertices(t *testing.T) {
	g := New(5)
	if g.NumVertices() != 5 {
		t.Fatalf("New(5): n=%d", g.NumVertices())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("New(5): m=%d", g.NumEdges())
	}
	g2 := New(0)
	if g2.NumVertices() != 0 {
		t.Fatalf("New(0): n=%d", g2.NumVertices())
	}
}

func TestAddEdgeBasics(t *testing.T) {
	var g Undirected
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.NumEdges() != 1 || g.NumVertices() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.AddEdge(0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate edge error = %v", err)
	}
	if err := g.AddEdge(1, 0); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("reversed duplicate edge error = %v", err)
	}
	if err := g.AddEdge(2, 2); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop error = %v", err)
	}
	if err := g.AddEdge(-1, 0); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("negative vertex error = %v", err)
	}
}

func TestAddEdgeGrowsVertices(t *testing.T) {
	var g Undirected
	if err := g.AddEdge(3, 7); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 8 {
		t.Fatalf("n=%d, want 8", g.NumVertices())
	}
	if g.Degree(3) != 1 || g.Degree(7) != 1 || g.Degree(5) != 0 {
		t.Fatal("degrees wrong after growth")
	}
}

func TestRemoveEdge(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	mustAdd(t, &g, 0, 2)
	if err := g.RemoveEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge survived removal")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d, want 2", g.NumEdges())
	}
	if err := g.RemoveEdge(0, 1); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("missing edge error = %v", err)
	}
	if err := g.RemoveEdge(9, 10); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("unknown vertices error = %v", err)
	}
	// Re-adding after removal must work.
	mustAdd(t, &g, 0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("re-added edge missing")
	}
}

func TestAddVertex(t *testing.T) {
	g := New(2)
	id := g.AddVertex()
	if id != 2 || g.NumVertices() != 3 {
		t.Fatalf("AddVertex id=%d n=%d", id, g.NumVertices())
	}
}

func TestNeighborsAndAppend(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 0, 2)
	mustAdd(t, &g, 0, 3)
	got := g.AppendNeighbors(nil, 0)
	sort.Ints(got)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
	if g.Neighbors(99) != nil {
		t.Fatal("Neighbors of unknown vertex should be nil")
	}
}

func TestForEachEdgeAndEdges(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 2, 1)
	mustAdd(t, &g, 0, 3)
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not normalized u<v", e)
		}
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v reported but absent", e)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	if err := c.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	mustAdd(t, c, 0, 5)
	if g.NumVertices() != 3 {
		t.Fatal("clone vertex growth leaked into original")
	}
}

func TestInducedSubgraph(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	mustAdd(t, &g, 2, 3)
	keep := []bool{true, true, true, false}
	s := g.InducedSubgraph(keep)
	if s.NumVertices() != g.NumVertices() {
		t.Fatalf("induced n=%d", s.NumVertices())
	}
	if !s.HasEdge(0, 1) || !s.HasEdge(1, 2) || s.HasEdge(2, 3) {
		t.Fatal("induced edge set wrong")
	}
}

func TestEqual(t *testing.T) {
	var a, b Undirected
	mustAdd(t, &a, 0, 1)
	mustAdd(t, &b, 0, 1)
	if !a.Equal(&b) {
		t.Fatal("equal graphs reported unequal")
	}
	mustAdd(t, &b, 1, 2)
	if a.Equal(&b) {
		t.Fatal("unequal edge counts reported equal")
	}
	var c Undirected
	mustAdd(t, &c, 0, 2)
	c.EnsureVertex(1)
	if a.NumVertices() == c.NumVertices() && a.Equal(&c) {
		t.Fatal("different edge sets reported equal")
	}
}

// TestRandomizedAgainstMapModel drives the graph with random operations and
// checks every observable, and the edge table, against a simple map-based
// reference model. Half of the operations touch one of three hot vertices
// and mostly add, pushing them past IndexThreshold, so both the scan and
// the table paths are exercised.
func TestRandomizedAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 40
	var g Undirected
	g.EnsureVertex(n - 1)
	ref := make(map[[2]int]bool)
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for step := 0; step < 5000; step++ {
		u := rng.IntN(n)
		v := rng.IntN(n)
		hot := rng.IntN(2) == 0
		if hot {
			u = rng.IntN(3)
		}
		if u == v {
			continue
		}
		if hot && rng.IntN(8) != 0 || !hot && rng.IntN(2) == 0 {
			err := g.AddEdge(u, v)
			if ref[key(u, v)] {
				if !errors.Is(err, ErrDuplicateEdge) {
					t.Fatalf("step %d: expected duplicate error, got %v", step, err)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: add: %v", step, err)
				}
				ref[key(u, v)] = true
			}
		} else {
			err := g.RemoveEdge(u, v)
			if ref[key(u, v)] {
				if err != nil {
					t.Fatalf("step %d: remove: %v", step, err)
				}
				delete(ref, key(u, v))
			} else if !errors.Is(err, ErrMissingEdge) {
				t.Fatalf("step %d: expected missing error, got %v", step, err)
			}
		}
		if g.NumEdges() != len(ref) {
			t.Fatalf("step %d: m=%d want %d", step, g.NumEdges(), len(ref))
		}
		checkIndex(t, &g)
	}
	hubs := 0
	for v := 0; v < n; v++ {
		if g.hub[v] {
			hubs++
		}
	}
	if hubs == 0 || hubs == n {
		t.Fatalf("%d of %d vertices are hubs; the mix must exercise both paths", hubs, n)
	}
	// Final full comparison of edge sets and degrees.
	deg := make([]int, n)
	for e := range ref {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("model edge %v missing", e)
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) != deg[v] {
			t.Fatalf("degree(%d)=%d want %d", v, g.Degree(v), deg[v])
		}
	}
	g.ForEachEdge(func(u, v int) {
		if !ref[key(u, v)] {
			t.Fatalf("graph edge (%d,%d) not in model", u, v)
		}
	})
}

func TestQuickDegreeSum(t *testing.T) {
	// Property: sum of degrees == 2m for arbitrary edge sets.
	f := func(pairs [][2]uint8) bool {
		var g Undirected
		for _, p := range pairs {
			u, v := int(p[0])%50, int(p[1])%50
			if u != v {
				_ = g.AddEdge(u, v) // duplicates allowed to fail
			}
		}
		sum := 0
		for v := 0; v < g.NumVertices(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment

0 1
1 2 extra-ignored
2 0
2 2
0 1
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m=%d want 3 (dup and self loop skipped)", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Fatal("edges missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",
		"a b\n",
		"0 b\n",
		"-1 2\n",
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var g Undirected
	g.EnsureVertex(29)
	for i := 0; i < 100; i++ {
		u, v := rng.IntN(30), rng.IntN(30)
		if u != v && !g.HasEdge(u, v) {
			mustAdd(t, &g, u, v)
		}
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, &g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != h.NumEdges() {
		t.Fatalf("round trip m: %d vs %d", g.NumEdges(), h.NumEdges())
	}
	g.ForEachEdge(func(u, v int) {
		if !h.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost in round trip", u, v)
		}
	})
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 16 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestWriteEdgeListError(t *testing.T) {
	var g Undirected
	for i := 0; i < 50; i++ {
		mustAdd(t, &g, i, i+50)
	}
	if err := WriteEdgeList(&failWriter{}, &g); err == nil {
		t.Fatal("expected write error to propagate")
	}
}

func TestBFS(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	mustAdd(t, &g, 3, 4)
	var visited []int
	g.BFS(0, nil, func(v int) bool { visited = append(visited, v); return true })
	sort.Ints(visited)
	if len(visited) != 3 || visited[0] != 0 || visited[2] != 2 {
		t.Fatalf("BFS visited %v", visited)
	}
	// Early stop.
	count := 0
	g.BFS(0, nil, func(v int) bool { count++; return false })
	if count != 1 {
		t.Fatalf("BFS early stop visited %d", count)
	}
	// Eligibility filter.
	visited = visited[:0]
	g.BFS(0, func(v int) bool { return v != 1 }, func(v int) bool { visited = append(visited, v); return true })
	if len(visited) != 1 || visited[0] != 0 {
		t.Fatalf("filtered BFS visited %v", visited)
	}
	// Unknown source is a no-op.
	g.BFS(99, nil, func(v int) bool { t.Fatal("visited from unknown source"); return false })
}

func TestConnectedComponents(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	mustAdd(t, &g, 3, 4)
	g.EnsureVertex(5)
	label, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("k=%d want 3", k)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("component 0-1-2 split")
	}
	if label[3] != label[4] {
		t.Fatal("component 3-4 split")
	}
	if label[5] == label[0] || label[5] == label[3] {
		t.Fatal("isolated vertex merged")
	}
}

func mustAdd(t *testing.T, g *Undirected, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

// checkIndex verifies the edge table against the adjacency lists: a vertex
// above IndexThreshold is a hub; an edge has an entry iff an endpoint is a
// hub; each entry stores the arc's slot in adj on a hub side and -1 on a
// non-hub side; the entry count is the number of hub edges; and every entry
// sits on an unbroken probe run from its home slot at load <= 1/2.
func checkIndex(t testing.TB, g *Undirected) {
	t.Helper()
	hubEdges := 0
	for u := range g.adj {
		if !g.hub[u] && len(g.adj[u]) > IndexThreshold {
			t.Fatalf("vertex %d has degree %d but is not a hub", u, len(g.adj[u]))
		}
		for i, w := range g.adj[u] {
			key, su := pack(u, int(w))
			j, ok := g.idx.find(key)
			if !g.hub[u] && !g.hub[w] {
				if ok {
					t.Fatalf("edge (%d,%d) between non-hubs has a table entry", u, w)
				}
				continue
			}
			if !ok {
				t.Fatalf("hub edge (%d,%d) has no table entry", u, w)
			}
			want := int32(-1)
			if g.hub[u] {
				want = int32(i)
			}
			if got := g.idx.tab[j].slot[su]; got != want {
				t.Fatalf("entry (%d,%d) stores slot %d on %d's side, want %d", u, w, got, u, want)
			}
			if int(w) > u {
				hubEdges++
			}
		}
	}
	if g.idx.n != hubEdges {
		t.Fatalf("table holds %d entries, graph has %d hub edges", g.idx.n, hubEdges)
	}
	checkProbeRuns(t, &g.idx)
}

// checkProbeRuns verifies the table's shape: the entry count matches the
// occupied slots, the load is at most 1/2, and no empty slot lies between
// an entry's home and its slot.
func checkProbeRuns(t testing.TB, x *arcIndex) {
	t.Helper()
	used := 0
	mask := len(x.tab) - 1
	for j, e := range x.tab {
		if e.key == 0 {
			continue
		}
		used++
		for i := x.home(e.key); i != j; i = (i + 1) & mask {
			if x.tab[i].key == 0 {
				t.Fatalf("entry %#x at slot %d: empty slot %d on its probe run", e.key, j, i)
			}
		}
	}
	if used != x.n {
		t.Fatalf("table has %d occupied slots, counts %d", used, x.n)
	}
	if 2*x.n > len(x.tab) {
		t.Fatalf("table load %d/%d above 1/2", x.n, len(x.tab))
	}
}

// TestHybridIndexPromotion pins the hybrid adjacency invariants: no table
// entry below the degree threshold, promotion exactly when the threshold
// is crossed, sticky promotion on the way down, and table slots that stay
// consistent with the slices across swap-removes in both regimes.
func TestHybridIndexPromotion(t *testing.T) {
	var g Undirected
	hub := 0
	for v := 1; v <= IndexThreshold; v++ {
		if err := g.AddEdge(hub, v); err != nil {
			t.Fatal(err)
		}
		if g.hub[hub] || g.idx.n != 0 {
			t.Fatalf("hub promoted at degree %d, threshold is %d", g.Degree(hub), IndexThreshold)
		}
	}
	if err := g.AddEdge(hub, IndexThreshold+1); err != nil {
		t.Fatal(err)
	}
	if !g.hub[hub] || g.idx.n != IndexThreshold+1 {
		t.Fatalf("hub not promoted at degree %d (%d entries)", g.Degree(hub), g.idx.n)
	}
	checkIndex(t, &g)
	// A second hub: the edge between the hubs stores both slots.
	for v := 2; v <= IndexThreshold+2; v++ {
		if v != IndexThreshold+1 {
			mustAdd(t, &g, IndexThreshold+1, v+100)
		}
	}
	if !g.hub[IndexThreshold+1] {
		t.Fatalf("vertex %d not promoted at degree %d", IndexThreshold+1, g.Degree(IndexThreshold+1))
	}
	checkIndex(t, &g)
	// Remove from the middle and the end (swap-remove both regimes).
	for _, v := range []int{1, IndexThreshold + 1, 7, 2} {
		if err := g.RemoveEdge(hub, v); err != nil {
			t.Fatal(err)
		}
		if g.HasEdge(hub, v) {
			t.Fatalf("edge (0,%d) still present after removal", v)
		}
		checkIndex(t, &g)
	}
	// A clone carries its own table.
	c := g.Clone()
	checkIndex(t, c)
	if err := c.RemoveEdge(hub, 3); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, c)
	if !g.HasEdge(hub, 3) {
		t.Fatal("clone removal leaked into the original's table")
	}
	checkIndex(t, &g)
	// Sticky: dropping far below the threshold keeps the hub and its entries.
	for v := 3; v <= IndexThreshold; v++ {
		if v == 7 {
			continue
		}
		if err := g.RemoveEdge(hub, v); err != nil {
			t.Fatal(err)
		}
	}
	if g.Degree(hub) >= IndexThreshold {
		t.Fatalf("hub degree still %d", g.Degree(hub))
	}
	if !g.hub[hub] {
		t.Fatal("promotion is documented sticky but the hub was demoted")
	}
	checkIndex(t, &g)
}

// TestArcIndexBackwardShift deletes from probe runs whose home slots collide
// at the end of the table and wrap past it, checking after every deletion
// that each remaining key is found and no probe run is broken.
func TestArcIndexBackwardShift(t *testing.T) {
	var probe arcIndex
	probe.reserve(1)
	size := len(probe.tab)
	// Keys whose homes are the last two slots and the first: their runs
	// collide and wrap around the table's end.
	var keys []uint64
	want := map[int]int{size - 2: 2, size - 1: 3, 0: 2}
	for v := 1; len(keys) < 7; v++ {
		key, _ := pack(0, v)
		if h := probe.home(key); want[h] > 0 {
			want[h]--
			keys = append(keys, key)
		}
	}
	rng := rand.New(rand.NewPCG(5, 8))
	for round := 0; round < 200; round++ {
		var x arcIndex
		x.reserve(len(keys))
		if len(x.tab) != size {
			t.Fatalf("table grew to %d, test needs %d", len(x.tab), size)
		}
		order := rng.Perm(len(keys))
		for _, k := range order {
			i, ok := x.find(keys[k])
			if ok {
				t.Fatalf("key %#x found before insertion", keys[k])
			}
			x.put(i, keys[k], [2]int32{int32(k), -1})
		}
		checkProbeRuns(t, &x)
		live := map[uint64]int32{}
		for k, key := range keys {
			live[key] = int32(k)
		}
		for _, k := range rng.Perm(len(keys)) {
			i, ok := x.find(keys[k])
			if !ok {
				t.Fatalf("round %d: key %#x lost", round, keys[k])
			}
			x.del(i)
			delete(live, keys[k])
			checkProbeRuns(t, &x)
			for key, slot := range live {
				i, ok := x.find(key)
				if !ok || x.tab[i].slot[0] != slot {
					t.Fatalf("round %d: after deleting %#x, key %#x found=%v", round, keys[k], key, ok)
				}
			}
			if _, ok := x.find(keys[k]); ok {
				t.Fatalf("round %d: deleted key %#x still found", round, keys[k])
			}
		}
	}
}

// TestBulkBuildMatchesAddEdge checks that ReadEdgeList's one-pass build
// equals AddEdge over the same lines in order, with self loops and
// repeated edges skipped: the same vertices, adjacency order, hubs and a
// consistent edge table.
func TestBulkBuildMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	random := func(n, m int) [][2]int {
		out := make([][2]int, m)
		for i := range out {
			out[i] = [2]int{rng.IntN(n), rng.IntN(n)}
		}
		return out
	}
	star := func(spokes, repeat int) [][2]int {
		var out [][2]int
		for r := 0; r < repeat; r++ {
			for v := 1; v <= spokes; v++ {
				out = append(out, [2]int{v, 0})
			}
		}
		return append(out, [2]int{spokes + 5, spokes + 5})
	}
	cases := map[string][][2]int{
		"empty":        nil,
		"sparse":       random(500, 800),
		"dense":        random(60, 3000),
		"hub":          star(IndexThreshold+8, 1),
		"repeated hub": star(IndexThreshold+8, 3),
		// Raw degree 40, real degree 20: marked a hub up front, then demoted.
		"demoted":      star(IndexThreshold/2+4, 2),
		"at threshold": append(star(IndexThreshold, 1), star(IndexThreshold+1, 1)[IndexThreshold:]...),
	}
	for name, edges := range cases {
		t.Run(name, func(t *testing.T) {
			var text strings.Builder
			var want Undirected
			for _, e := range edges {
				fmt.Fprintf(&text, "%d %d\n", e[0], e[1])
				if err := want.AddEdge(e[0], e[1]); err != nil &&
					!errors.Is(err, ErrDuplicateEdge) && !errors.Is(err, ErrSelfLoop) {
					t.Fatal(err)
				}
			}
			got, err := ReadEdgeList(strings.NewReader(text.String()))
			if err != nil {
				t.Fatal(err)
			}
			if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
				t.Fatalf("n=%d m=%d, want n=%d m=%d",
					got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
			}
			for v := range want.adj {
				if !slices.Equal(got.adj[v], want.adj[v]) {
					t.Fatalf("adj[%d] = %v, want %v", v, got.adj[v], want.adj[v])
				}
				if got.hub[v] != want.hub[v] {
					t.Fatalf("hub[%d] = %v, want %v", v, got.hub[v], want.hub[v])
				}
			}
			checkIndex(t, got)
			checkIndex(t, &want)
			// The built graph keeps working under mutation.
			for _, e := range edges {
				if got.HasEdge(e[0], e[1]) {
					if err := got.RemoveEdge(e[0], e[1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got.NumEdges() != 0 {
				t.Fatalf("m=%d after removing every edge", got.NumEdges())
			}
			checkIndex(t, got)
		})
	}
}

// TestVertexRange checks that ids above MaxVertex are rejected before the
// vertex arrays grow.
func TestVertexRange(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	for _, e := range [][2]int{{0, MaxVertex + 1}, {MaxVertex + 1, 0}, {-1, 0}, {0, math.MaxInt}} {
		if err := g.AddEdge(e[0], e[1]); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("AddEdge(%d,%d) = %v, want ErrVertexRange", e[0], e[1], err)
		}
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d after rejected inserts", g.NumVertices(), g.NumEdges())
	}
	if err := g.RemoveEdge(0, MaxVertex+1); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("RemoveEdge of unknown vertex = %v", err)
	}
	for _, in := range []string{"0 1\n0 3000000000\n", "0 1\n0 2147483648\n", "0 1\n99999999999999999999 0\n"} {
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("input %q: err = %v, want a line 2 error", in, err)
		}
	}
	if _, err := ReadEdgeList(strings.NewReader("0 3000000000\n")); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("err = %v, want ErrVertexRange", err)
	}
	// The largest id parses; a successful insert of it would allocate 2^31
	// vertices, so only the parser is checked.
	if v, err := parseVertex([]byte("2147483647")); err != nil || v != MaxVertex {
		t.Fatalf("parseVertex(MaxVertex) = %d, %v", v, err)
	}
}
