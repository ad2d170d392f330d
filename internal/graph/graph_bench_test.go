package graph

import (
	"math/rand/v2"
	"testing"
)

// Hybrid adjacency benchmarks: most vertices stay under IndexThreshold and
// are served by linear scans of the adjacency slice; the edges of a few
// hubs go through the edge table. The fixture builds a star-plus-ring shape
// so both regimes are exercised: vertex 0 is a hub (degree >> threshold),
// vertices 1..n are low degree.

func hybridFixture(n int) *Undirected {
	g := New(n + 1)
	for v := 1; v <= n; v++ {
		if err := g.AddEdge(0, v); err != nil { // hub arcs
			panic(err)
		}
		w := v%n + 1
		if v != w && !g.HasEdge(v, w) { // low-degree ring arcs
			if err := g.AddEdge(v, w); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func BenchmarkHybridAdjacencyHasEdge(b *testing.B) {
	g := hybridFixture(4096)
	rng := rand.New(rand.NewPCG(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := rng.IntN(4096) + 1
		v := rng.IntN(4096) + 1
		_ = g.HasEdge(u, v) // low-degree vs low-degree: scan path
		_ = g.HasEdge(0, u) // hub vs low-degree: table path
	}
}

func BenchmarkHybridAdjacencyAddRemove(b *testing.B) {
	g := hybridFixture(4096)
	rng := rand.New(rand.NewPCG(2, 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := rng.IntN(4096) + 1
		v := rng.IntN(4096) + 1
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			if err := g.RemoveEdge(u, v); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := g.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHybridAdjacencyHubChurn hammers the hub (edge table) path.
func BenchmarkHybridAdjacencyHubChurn(b *testing.B) {
	g := hybridFixture(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i%4096 + 1
		if err := g.RemoveEdge(0, v); err != nil {
			b.Fatal(err)
		}
		if err := g.AddEdge(0, v); err != nil {
			b.Fatal(err)
		}
	}
}
