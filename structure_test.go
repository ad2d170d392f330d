package kcore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kcore"
	"kcore/internal/gen"
	"kcore/internal/order"
	"kcore/internal/persist"
	"kcore/internal/workload"
)

// TestReplayStructureNeutral: the order structure is invisible at the
// engine boundary. A tag-list engine (the default) and a treap engine on
// one seed, fed the same mixed churn — including batches large enough to
// take the rebuild path — must report identical BatchInfo, cores, k-order
// and AppliedBatch hook streams. So a WAL or replication stream recorded
// under one structure replays to the same state under the other.
func TestReplayStructureNeutral(t *testing.T) {
	g := gen.ErdosRenyi(600, 1800, 5)
	base := g.Edges()
	ops := workload.Churn(g, 6000, workload.ChurnOptions{Skew: 0.5, Seed: 11})

	type run struct {
		e      *kcore.Engine
		hooked []kcore.AppliedBatch
	}
	newRun := func(opts ...kcore.Option) *run {
		e, err := kcore.FromEdges(base, append([]kcore.Option{kcore.WithSeed(3)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{e: e}
		e.SetApplyHook(func(b kcore.AppliedBatch) error {
			r.hooked = append(r.hooked, kcore.AppliedBatch{
				Seq: b.Seq, Updates: append([]kcore.Update(nil), b.Updates...)})
			return nil
		})
		return r
	}
	tag := newRun()
	treap := newRun(kcore.WithOrderStructure(kcore.TreapOrder))
	if k := kcore.OrderKindOf(tag.e); k != order.KindTagList {
		t.Fatalf("default engine runs on %v, want the tag list", k)
	}
	if k := kcore.OrderKindOf(treap.e); k != order.KindTreap {
		t.Fatalf("TreapOrder engine runs on %v", k)
	}

	sizes := []int{1, 7, 40, 300, 3, 500, 16, 260}
	recomputed, maintained := 0, 0
	for i, bi := 0, 0; i < len(ops); bi++ {
		end := min(i+sizes[bi%len(sizes)], len(ops))
		var batch kcore.Batch
		for _, op := range ops[i:end] {
			if op.Insert {
				batch = append(batch, kcore.Add(op.E.U, op.E.V))
			} else {
				batch = append(batch, kcore.Remove(op.E.U, op.E.V))
			}
		}
		i = end
		if bi%3 == 0 { // grow the vertex set too
			batch = append(batch, kcore.Add(bi%600, 600+bi))
		}
		ti, err := tag.e.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := treap.e.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ti, ri) {
			t.Fatalf("batch %d: BatchInfo differs:\ntag   %+v\ntreap %+v", bi, ti, ri)
		}
		if ti.Recomputed {
			recomputed++
		} else if len(batch) >= 256 {
			maintained++
		}
		checkSameIndex(t, bi, tag.e, treap.e)
	}
	if recomputed == 0 || maintained == 0 {
		t.Fatalf("stream took %d rebuilds and %d large maintained batches; want both paths",
			recomputed, maintained)
	}
	if !reflect.DeepEqual(tag.hooked, treap.hooked) {
		t.Fatal("AppliedBatch hook streams differ")
	}
	for _, r := range []*run{tag, treap} {
		if err := r.e.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	// Replay each structure's hook stream on the other structure.
	for _, c := range []struct {
		stream []kcore.AppliedBatch
		opts   []kcore.Option
		live   *kcore.Engine
	}{
		{treap.hooked, nil, treap.e},
		{tag.hooked, []kcore.Option{kcore.WithOrderStructure(kcore.TreapOrder)}, tag.e},
	} {
		f := newRun(c.opts...)
		for _, b := range c.stream {
			info, err := f.e.Replay(kcore.Batch(b.Updates))
			if err != nil {
				t.Fatal(err)
			}
			if info.Seq != b.Seq {
				t.Fatalf("replay seq %d, recorded %d", info.Seq, b.Seq)
			}
		}
		checkSameIndex(t, -1, f.e, c.live)
	}
}

// checkSameIndex fails unless a and b hold the same cores, k-order and
// edge set at the same Seq.
func checkSameIndex(t *testing.T, batch int, a, b *kcore.Engine) {
	t.Helper()
	sa, err := a.View(kcore.WithIndex()).Index()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.View(kcore.WithIndex()).Index()
	if err != nil {
		t.Fatal(err)
	}
	if sa.Seq != sb.Seq || sa.Vertices != sb.Vertices {
		t.Fatalf("batch %d: seq/vertices %d/%d vs %d/%d", batch, sa.Seq, sa.Vertices, sb.Seq, sb.Vertices)
	}
	if !reflect.DeepEqual(sa.Cores, sb.Cores) {
		t.Fatalf("batch %d: cores differ", batch)
	}
	if !reflect.DeepEqual(sa.Order, sb.Order) {
		t.Fatalf("batch %d: k-order differs", batch)
	}
	if !reflect.DeepEqual(sa.Edges, sb.Edges) {
		t.Fatalf("batch %d: edge sets differ", batch)
	}
}

// TestOrderStructurePersisted: the structure recorded in a snapshot maps
// onto the structure the restored levels really use. The golden fixture was
// recorded by a treap engine (header byte 13 = 0) and must keep loading as
// one; a default engine records TagOrder (byte 13 = 1) and reloads onto the
// tag list.
func TestOrderStructurePersisted(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("internal", "persist", "testdata", "golden", "snapshot_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if golden[13] != byte(kcore.TreapOrder) || kcore.TreapOrder != 0 || kcore.TagOrder != 1 {
		t.Fatalf("persisted structure values moved: fixture byte %d, TreapOrder %d, TagOrder %d",
			golden[13], kcore.TreapOrder, kcore.TagOrder)
	}
	e, err := persist.ReadSnapshot(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if k := kcore.OrderKindOf(e); k != order.KindTreap {
		t.Fatalf("golden treap snapshot loaded onto %v", k)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}

	edges := gen.ErdosRenyi(200, 600, 9).Edges()
	def, err := kcore.FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	st, err := def.View(kcore.WithIndex()).Index()
	if err != nil {
		t.Fatal(err)
	}
	if st.Structure != kcore.TagOrder {
		t.Fatalf("default engine records %v, want TagOrder", st.Structure)
	}
	data, err := persist.EncodeSnapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	if data[13] != byte(kcore.TagOrder) {
		t.Fatalf("default snapshot structure byte = %d", data[13])
	}
	back, err := persist.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if k := kcore.OrderKindOf(back); k != order.KindTagList {
		t.Fatalf("TagOrder snapshot loaded onto %v", k)
	}

	// FromIndex installs the structure the state records, whatever the
	// options say.
	for _, c := range []struct {
		structure, option kcore.OrderStructure
		want              order.Kind
	}{
		{kcore.TagOrder, kcore.TreapOrder, order.KindTagList},
		{kcore.TreapOrder, kcore.TagOrder, order.KindTreap},
	} {
		cs := *st
		cs.Structure = c.structure
		re, err := kcore.FromIndex(&cs, kcore.WithOrderStructure(c.option))
		if err != nil {
			t.Fatal(err)
		}
		if k := kcore.OrderKindOf(re); k != c.want {
			t.Fatalf("FromIndex onto %v, want %v", k, c.want)
		}
	}
}
