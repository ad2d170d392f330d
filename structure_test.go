package kcore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/decomp"
	"kcore/internal/gen"
	"kcore/internal/korder"
	"kcore/internal/order"
	"kcore/internal/persist"
	"kcore/internal/workload"
)

// TestOldWriterSnapshotsLoad: snapshot headers once recorded the writing
// engine's heuristic (byte 12), order structure (byte 13) and seed (bytes
// 16-23). The engine now has one configuration, so every snapshot an older
// writer produced — under any heuristic, on the treap or the tag list, with
// any seed — must load onto the tag list with its recorded seq, cores and
// k-order, and keep maintaining from there. Re-encoding writes the header
// of a default older engine: heuristic 0, tag list, seed 1.
func TestOldWriterSnapshotsLoad(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("internal", "persist", "testdata", "golden", "snapshot_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if golden[12] != 0 || golden[13] != 0 || binary.LittleEndian.Uint64(golden[16:24]) != 7 {
		t.Fatalf("golden fixture header moved: % x", golden[12:24])
	}
	cases := map[string][]byte{"golden treap fixture": golden}
	g := gen.ErdosRenyi(300, 900, 5)
	ops := workload.Churn(g, 2000, workload.ChurnOptions{Skew: 0.5, Seed: 11})
	for _, h := range []decomp.Heuristic{decomp.SmallDegPlusFirst, decomp.LargeDegPlusFirst, decomp.RandomDegPlusFirst} {
		for _, k := range []order.Kind{order.KindTreap, order.KindTagList} {
			// Record the state an older engine on (h, k, seed 7) held
			// after the churn, under that engine's header.
			m := korder.New(g.Clone(), korder.Options{Heuristic: h, OrderKind: k, Seed: 7})
			for _, op := range ops {
				var err error
				if op.Insert {
					_, err = m.Insert(op.E.U, op.E.V)
				} else {
					_, err = m.Remove(op.E.U, op.E.V)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			data, err := persist.EncodeSnapshot(&kcore.IndexState{
				Seq: uint64(len(ops)), Vertices: m.Graph().NumVertices(),
				Edges: m.Graph().Edges(), Cores: m.Cores(), Order: m.Order(),
			})
			if err != nil {
				t.Fatal(err)
			}
			cases[fmt.Sprintf("%v/%v", h, k)] = withHeader(data, byte(h), byte(k), 7)
		}
	}

	for name, data := range cases {
		st, err := persist.DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e, err := kcore.FromIndex(st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k := kcore.OrderKindOf(e); k != order.KindTagList {
			t.Fatalf("%s: loaded onto %v, want the tag list", name, k)
		}
		got := e.Index()
		if got.Seq != st.Seq || !slices.Equal(got.Cores, st.Cores) || !slices.Equal(got.Order, st.Order) {
			t.Fatalf("%s: loaded seq %d, cores or k-order differ from the recorded state (seq %d)",
				name, got.Seq, st.Seq)
		}
		// The loaded engine keeps maintaining its recorded k-order.
		if _, err := e.Apply(kcore.Batch{kcore.Add(0, st.Vertices), kcore.Add(1, st.Vertices)}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		re, err := persist.EncodeSnapshot(got)
		if err != nil {
			t.Fatal(err)
		}
		if re[12] != 0 || re[13] != 1 || binary.LittleEndian.Uint64(re[16:24]) != 1 {
			t.Fatalf("%s: re-encoded header % x, want heuristic 0, structure 1, seed 1", name, re[12:24])
		}
	}

	// Values no writer ever recorded are still corruption.
	for _, bad := range [][2]byte{{3, 1}, {0, 2}} {
		data := withHeader(golden, bad[0], bad[1], 7)
		if _, err := persist.DecodeSnapshot(data); !errors.Is(err, persist.ErrCorruptSnapshot) {
			t.Fatalf("header %v: DecodeSnapshot err = %v, want ErrCorruptSnapshot", bad, err)
		}
		if _, err := persist.ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, persist.ErrCorruptSnapshot) {
			t.Fatalf("header %v: ReadSnapshot err = %v, want ErrCorruptSnapshot", bad, err)
		}
	}
}

// withHeader returns a copy of the snapshot data with the legacy header
// fields set and the trailing CRC recomputed.
func withHeader(data []byte, heuristic, structure byte, seed uint64) []byte {
	out := slices.Clone(data)
	out[12], out[13] = heuristic, structure
	binary.LittleEndian.PutUint64(out[16:24], seed)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}
