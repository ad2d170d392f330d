package graph

import (
	"errors"
	"testing"
)

// FuzzGraphOps drives AddEdge/RemoveEdge from bytes on at most 64 vertices
// and checks every result against a map model, and the edge table with
// checkIndex. Each operation takes two bytes: the low six bits of each pick
// an endpoint; bit 7 of the second byte selects removal; bit 6 of the first
// narrows the first endpoint to vertices 0-3, so inputs can grow hubs.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 0x82})
	hub := make([]byte, 0, 160)
	for v := 1; v <= IndexThreshold+8; v++ {
		hub = append(hub, 0x40, byte(v))
	}
	for v := 1; v <= IndexThreshold+8; v += 3 {
		hub = append(hub, 0x40, byte(v)|0x80, byte(v), 0x41)
	}
	f.Add(hub)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var g Undirected
		model := map[[2]int]bool{}
		for k := 0; k+1 < len(ops); k += 2 {
			u, v := int(ops[k]&63), int(ops[k+1]&63)
			if ops[k]&0x40 != 0 {
				u &= 3
			}
			e := [2]int{min(u, v), max(u, v)}
			if ops[k+1]&0x80 == 0 {
				err := g.AddEdge(u, v)
				switch {
				case u == v:
					if !errors.Is(err, ErrSelfLoop) {
						t.Fatalf("AddEdge(%d,%d) = %v, want ErrSelfLoop", u, v, err)
					}
				case model[e]:
					if !errors.Is(err, ErrDuplicateEdge) {
						t.Fatalf("AddEdge(%d,%d) = %v, want ErrDuplicateEdge", u, v, err)
					}
				case err != nil:
					t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
				default:
					model[e] = true
				}
			} else {
				err := g.RemoveEdge(u, v)
				if model[e] && u != v {
					if err != nil {
						t.Fatalf("RemoveEdge(%d,%d): %v", u, v, err)
					}
					delete(model, e)
				} else if !errors.Is(err, ErrMissingEdge) {
					t.Fatalf("RemoveEdge(%d,%d) = %v, want ErrMissingEdge", u, v, err)
				}
			}
			if g.HasEdge(u, v) != (model[e] && u != v) {
				t.Fatalf("HasEdge(%d,%d) disagrees with the model", u, v)
			}
			if g.NumEdges() != len(model) {
				t.Fatalf("m=%d, model has %d", g.NumEdges(), len(model))
			}
		}
		for e := range model {
			if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
				t.Fatalf("model edge %v missing", e)
			}
		}
		deg := 0
		for v := 0; v < g.NumVertices(); v++ {
			deg += g.Degree(v)
		}
		if deg != 2*len(model) {
			t.Fatalf("degree sum %d, model has %d edges", deg, len(model))
		}
		checkIndex(t, &g)
	})
}
