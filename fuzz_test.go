package kcore_test

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/graph"
	"kcore/internal/traversal"
)

// fuzzVertices bounds the vertex ids the fuzzer draws, so random updates
// collide often enough to exercise removals, duplicates and coalescing.
const fuzzVertices = 24

// fuzzModes are the engine configurations FuzzEngineApply drives: the
// default, per-update maintenance forced on every batch, wholesale
// recomputation forced on every multi-update batch, and the default engine
// captured with Engine.Index and rebuilt by FromIndex after every batch.
var fuzzModes = []struct {
	opts    []kcore.Option
	restore bool
}{
	{},
	{opts: []kcore.Option{kcore.WithRebuildThreshold(-1, 0)}},
	{opts: []kcore.Option{kcore.WithRebuildThreshold(1, 0)}},
	{restore: true},
}

// FuzzEngineApply drives random mixed batches through the public Engine
// and checks every layer after every batch: Validate (maintainer
// invariants and epoch agreement), a from-scratch Decompose of the edge
// set, the lock-free reads against a View, and the traversal baseline fed
// the surviving updates the apply hook reports. At the end the hook stream
// is replayed into a fresh engine, which must reach the same sequence
// number, cores and k-order; in the restore mode that proves each
// captured and rebuilt engine carried on exactly as the live one would.
//
// Input format: mode selects a configuration from fuzzModes; data is a
// sequence of batches, each a header byte (low five bits: update count
// minus one; high bit: the batch may carry raw updates) followed by two
// bytes per update. An update toggles the edge between its two endpoints,
// accounting for earlier updates of the same batch, so toggling one edge
// twice forms a coalesced pair. In a raw batch an update whose first byte
// has its high bit set is taken literally instead — its op from the second
// byte's high bit, a negative endpoint from the second byte's 0x40 bit —
// so it may be a self loop, a duplicate, a missing edge or out of range,
// and the whole batch must then be rejected without effect.
func FuzzEngineApply(f *testing.F) {
	for mode := range fuzzModes {
		rng := rand.New(rand.NewPCG(uint64(mode), 14))
		data := make([]byte, 160)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		f.Add(uint8(mode), data)
		// One-update batches keep publication on the epoch patch path,
		// which larger batches skip by folding.
		single := slices.Clone(data)
		for i := 0; i < len(single); i += 3 {
			single[i] = 0
		}
		f.Add(uint8(mode), single)
	}
	// Add 0-1, then remove it again in the same batch (a coalesced pair),
	// then a raw batch with a self loop.
	f.Add(uint8(2), []byte{0x02, 0, 1, 2, 3, 0, 1, 0x80, 0x85, 0x05})
	f.Fuzz(fuzzEngineApply)
}

func fuzzEngineApply(t *testing.T, mode uint8, data []byte) {
	{
		cfg := fuzzModes[int(mode)%len(fuzzModes)]
		e := kcore.NewEngine(cfg.opts...)
		var log []kcore.AppliedBatch
		hook := func(ab kcore.AppliedBatch) error {
			log = append(log, kcore.AppliedBatch{Seq: ab.Seq, Updates: slices.Clone(ab.Updates)})
			return nil
		}
		e.SetApplyHook(hook)
		oracle := traversal.New(graph.New(0), 2)
		present := map[[2]int]bool{}
		for step := 0; len(data) > 0; step++ {
			var batch kcore.Batch
			var pending map[[2]int]bool
			batch, pending, data = decodeFuzzBatch(data, present)
			seq, logged := e.Seq(), len(log)
			info, err := e.Apply(batch)
			if err != nil {
				var be *kcore.BatchError
				if !errors.As(err, &be) {
					t.Fatalf("step %d: Apply(%v) = %v, want a *BatchError", step, batch, err)
				}
				if e.Seq() != seq || len(log) != logged {
					t.Fatalf("step %d: rejected batch moved seq %d->%d or logged", step, seq, e.Seq())
				}
			} else {
				if info.Applied+info.Coalesced != len(batch) || info.Seq != e.Seq() ||
					e.Seq() != seq+uint64(info.Applied) {
					t.Fatalf("step %d: BatchInfo{Applied:%d Coalesced:%d Seq:%d} for %d updates from seq %d, engine seq %d",
						step, info.Applied, info.Coalesced, info.Seq, len(batch), seq, e.Seq())
				}
				// The hook sees exactly the surviving updates, once per
				// batch that applied any.
				hooked := 0
				for _, ab := range log[logged:] {
					hooked += len(ab.Updates)
				}
				if want := min(info.Applied, 1); len(log)-logged != want || hooked != info.Applied ||
					want == 1 && log[logged].Seq != info.Seq {
					t.Fatalf("step %d: hook saw %d records of %d updates for a batch that applied %d",
						step, len(log)-logged, hooked, info.Applied)
				}
				for k, p := range pending {
					if p {
						present[k] = true
					} else {
						delete(present, k)
					}
				}
				for _, ab := range log[logged:] {
					for _, up := range ab.Updates {
						var err error
						if up.Op == kcore.OpAdd {
							_, err = oracle.Insert(up.U, up.V)
						} else {
							_, err = oracle.Remove(up.U, up.V)
						}
						if err != nil {
							t.Fatalf("step %d: traversal rejects logged update %v: %v", step, up, err)
						}
					}
				}
			}
			checkFuzzEngine(t, step, e, oracle, len(present))
			if cfg.restore {
				re, err := kcore.FromIndex(e.Index(), cfg.opts...)
				if err != nil {
					t.Fatalf("step %d: FromIndex: %v", step, err)
				}
				re.SetApplyHook(hook)
				e = re
			}
		}

		fresh := kcore.NewEngine(cfg.opts...)
		for i, ab := range log {
			info, err := fresh.Replay(kcore.Batch(ab.Updates))
			if err != nil {
				t.Fatalf("replay %d: %v", i, err)
			}
			if info.Seq != ab.Seq {
				t.Fatalf("replay %d: seq %d, logged %d", i, info.Seq, ab.Seq)
			}
		}
		want, got := e.Index(), fresh.Index()
		if got.Seq != want.Seq || !slices.Equal(got.Cores, want.Cores) ||
			!slices.Equal(got.Order, want.Order) || !slices.Equal(got.Edges, want.Edges) {
			t.Fatalf("replayed engine diverges: seq %d vs %d\ncores %v\nwant  %v\norder %v\nwant  %v",
				got.Seq, want.Seq, got.Cores, want.Cores, got.Order, want.Order)
		}
	}
}

// decodeFuzzBatch decodes one batch from the front of data (see
// FuzzEngineApply for the format). It returns the batch, the edge presence
// the batch leaves behind if it applies, and the unread rest of data.
func decodeFuzzBatch(data []byte, present map[[2]int]bool) (kcore.Batch, map[[2]int]bool, []byte) {
	h := data[0]
	data = data[1:]
	size, raw := 1+int(h&0x1f), h&0x80 != 0
	var batch kcore.Batch
	pending := map[[2]int]bool{}
	for ; size > 0 && len(data) >= 2; size-- {
		b0, b1 := data[0], data[1]
		data = data[2:]
		u, v := int(b0&0x3f)%fuzzVertices, int(b1&0x3f)%fuzzVertices
		if raw && b0&0x80 != 0 {
			if b1&0x40 != 0 {
				u = -1
			}
			add := b1&0x80 == 0
			if add {
				batch = append(batch, kcore.Add(u, v))
			} else {
				batch = append(batch, kcore.Remove(u, v))
			}
			// Only a valid literal update matters to the model: an invalid
			// one rejects the whole batch.
			pending[[2]int{min(u, v), max(u, v)}] = add
			continue
		}
		if u == v {
			v = (v + 1) % fuzzVertices
		}
		k := [2]int{min(u, v), max(u, v)}
		p, ok := pending[k]
		if !ok {
			p = present[k]
		}
		if p {
			batch = append(batch, kcore.Remove(u, v))
		} else {
			batch = append(batch, kcore.Add(u, v))
		}
		pending[k] = !p
	}
	return batch, pending, data
}

// checkFuzzEngine runs the per-batch checks of FuzzEngineApply.
func checkFuzzEngine(t *testing.T, step int, e *kcore.Engine, oracle *traversal.Maintainer, edges int) {
	t.Helper()
	if err := e.Validate(); err != nil {
		t.Fatalf("step %d: Validate: %v", step, err)
	}
	if e.NumEdges() != edges {
		t.Fatalf("step %d: engine has %d edges, model %d", step, e.NumEdges(), edges)
	}
	cores := e.Cores()
	want, err := kcore.Decompose(e.Edges())
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range cores {
		w := 0
		if v < len(want) {
			w = want[v]
		}
		if c != w {
			t.Fatalf("step %d: core(%d) = %d, Decompose says %d", step, v, c, w)
		}
		if o := oracle.Core(v); c != o {
			t.Fatalf("step %d: core(%d) = %d, traversal says %d", step, v, c, o)
		}
	}
	view := e.View()
	if view.Seq() != e.Seq() || !slices.Equal(view.Cores(), cores) {
		t.Fatalf("step %d: View at seq %d disagrees with the engine at seq %d", step, view.Seq(), e.Seq())
	}
}
