package korder

import (
	"slices"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/order"
	"kcore/internal/workload"
)

// TestStructureNeutral: under the default heuristic the order structure and
// the seed are invisible outside the maintainer. A treap maintainer and a
// tag-list maintainer on different seeds, fed the same mixed insert/remove
// stream with a wholesale graph mutation and Reseed in the middle, must
// report the same Changed set and Visited count for every update and hold
// the same k-order after it. So the engine, which runs only the tag list,
// reproduces any state a treap engine recorded.
func TestStructureNeutral(t *testing.T) {
	g := gen.ErdosRenyi(600, 1800, 5)
	ops := workload.Churn(g, 6000, workload.ChurnOptions{Skew: 0.5, Seed: 11})
	treap := New(g.Clone(), Options{OrderKind: order.KindTreap, Seed: 3})
	tag := New(g.Clone(), Options{OrderKind: order.KindTagList, Seed: 987654321})
	if treap.OrderKind() != order.KindTreap || tag.OrderKind() != order.KindTagList {
		t.Fatalf("structures %v and %v", treap.OrderKind(), tag.OrderKind())
	}
	sameOrder(t, -1, treap, tag)

	mid := len(ops) / 2
	maintainBoth(t, 0, ops[:mid], treap, tag)
	// Mutate both graphs wholesale, as the engine's rebuild path does, then
	// rebuild both indexes from scratch.
	for _, op := range ops[mid : mid+500] {
		for _, m := range []*Maintainer{treap, tag} {
			var err error
			if op.Insert {
				err = m.Graph().AddEdge(op.E.U, op.E.V)
			} else {
				err = m.Graph().RemoveEdge(op.E.U, op.E.V)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	treap.Reseed()
	tag.Reseed()
	sameOrder(t, mid, treap, tag)
	maintainBoth(t, mid+500, ops[mid+500:], treap, tag)
	for _, m := range []*Maintainer{treap, tag} {
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// maintainBoth feeds ops, numbered from first, to a and b one update at a
// time and fails on the first update whose result or k-order differs.
func maintainBoth(t *testing.T, first int, ops []workload.Op, a, b *Maintainer) {
	t.Helper()
	for i, op := range ops {
		var ra, rb UpdateResult
		var errA, errB error
		if op.Insert {
			ra, errA = a.Insert(op.E.U, op.E.V)
			rb, errB = b.Insert(op.E.U, op.E.V)
		} else {
			ra, errA = a.Remove(op.E.U, op.E.V)
			rb, errB = b.Remove(op.E.U, op.E.V)
		}
		if errA != nil || errB != nil {
			t.Fatalf("update %d: %v / %v", first+i, errA, errB)
		}
		if ra.K != rb.K || ra.Visited != rb.Visited || !slices.Equal(ra.Changed, rb.Changed) {
			t.Fatalf("update %d (%+v): {K:%d Visited:%d Changed:%v} vs {K:%d Visited:%d Changed:%v}",
				first+i, op, ra.K, ra.Visited, ra.Changed, rb.K, rb.Visited, rb.Changed)
		}
		sameOrder(t, first+i, a, b)
	}
}

// sameOrder fails unless a and b hold the same k-order and cores.
func sameOrder(t *testing.T, update int, a, b *Maintainer) {
	t.Helper()
	if !slices.Equal(a.Order(), b.Order()) {
		t.Fatalf("update %d: k-orders differ", update)
	}
	if !slices.Equal(a.Cores(), b.Cores()) {
		t.Fatalf("update %d: cores differ", update)
	}
}
