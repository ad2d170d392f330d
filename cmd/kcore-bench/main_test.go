package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kcore/internal/bench"
)

// committedRows lists, per committed BENCH_*.json report, the rows README.md
// and EXPERIMENTS.md cite. Every report in the repo root must appear here,
// so a new report comes with its cited rows.
var committedRows = map[string][]string{
	"BENCH_hotpath.json": {
		"korder/insert/social", "korder/churn/steady-state",
		"graph/hybrid/addremove", "graph/hybrid/hasedge", "graph/hub/churn",
		"order/arena/migrate", "engine/apply-batch", "engine/per-edge-add",
	},
	"BENCH_parallel.json": {
		"engine/apply-batch", "engine/apply-batch/maintain",
		"engine/rebuild-crossover/f002/maintain", "engine/rebuild-crossover/f002/rebuild",
		"engine/rebuild-crossover/f005/maintain", "engine/rebuild-crossover/f005/rebuild",
		"engine/rebuild-crossover/f010/maintain", "engine/rebuild-crossover/f010/rebuild",
		"engine/rebuild-crossover/f020/maintain", "engine/rebuild-crossover/f020/rebuild",
		"engine/rebuild-crossover/f040/maintain", "engine/rebuild-crossover/f040/rebuild",
	},
	"BENCH_serve.json": {
		"serve2/ingest-json", "serve2/ingest-binary",
		"serve2/http-ingest-json", "serve2/http-ingest-binary",
		"serve2/fanout-100", "serve2/fanout-1000", "serve2/fanout-10000",
	},
	"BENCH_persist.json": {
		"persist/apply-nowal", "persist/apply-wal-off", "persist/apply-wal-interval",
		"persist/apply-wal-always",
		"persist/recover-e2500", "persist/recover-e10000", "persist/recover-e40000",
	},
	"BENCH_readpath.json": {"readpath/reads-locked", "readpath/reads-epoch"},
	"BENCH_replicate.json": {
		"replicate/read-core/followers=0", "replicate/read-core/followers=1",
		"replicate/read-core/followers=2",
		"replicate/catchup/followers=1", "replicate/catchup/followers=2",
	},
	"BENCH_chaos.json": {"chaos/write-availability", "chaos/recovery-median"},
}

// TestCommittedBaselines checks that every committed report decodes under
// the current schema, including the older files whose hot-path rows carry
// allocs_per_op: 0, and still carries the rows the docs cite.
func TestCommittedBaselines(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json reports found in the repo root")
	}
	seen := map[string]bool{}
	for _, path := range paths {
		file := filepath.Base(path)
		seen[file] = true
		t.Run(file, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rep bench.Report
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if rep.Schema != bench.ReportSchema {
				t.Fatalf("schema %q, want %q", rep.Schema, bench.ReportSchema)
			}
			if len(rep.Results) == 0 {
				t.Fatal("no results")
			}
			have := map[string]bool{}
			for _, r := range rep.Results {
				if have[r.Name] {
					t.Errorf("row %s appears twice", r.Name)
				}
				have[r.Name] = true
				if r.NsPerOp <= 0 {
					t.Errorf("row %s: ns_per_op %v is not positive", r.Name, r.NsPerOp)
				}
			}
			want, ok := committedRows[file]
			if !ok {
				t.Fatalf("%s is not listed in committedRows", file)
			}
			for _, name := range want {
				if !have[name] {
					t.Errorf("missing row %s", name)
				}
			}
		})
	}
	for file := range committedRows {
		if !seen[file] {
			t.Errorf("%s is listed in committedRows but not committed", file)
		}
	}
}

func TestSpeedupGate(t *testing.T) {
	const name = "serve2/ingest-json ÷ serve2/ingest-binary"
	for _, tc := range []struct {
		got, bound float64
		fail       bool
	}{
		{got: 6.1, bound: 5},
		{got: 5, bound: 5},
		{got: 4.9, bound: 5, fail: true},
		{got: 0.5, bound: 0},
		{got: 0.5, bound: -1},
	} {
		err := speedupGate(name, tc.got, tc.bound)
		if (err != nil) != tc.fail {
			t.Errorf("speedupGate(%v, %v) = %v, want failure %v", tc.got, tc.bound, err, tc.fail)
			continue
		}
		if err != nil {
			for _, part := range []string{"serve2/ingest-json", "serve2/ingest-binary", "4.90x", "5.00x"} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("message %q does not name %q", err, part)
				}
			}
		}
	}
}
