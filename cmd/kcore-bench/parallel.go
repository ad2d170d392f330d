package main

import (
	"fmt"
	"testing"
	"time"

	"kcore"
	"kcore/internal/bench"
	"kcore/internal/gen"
	"kcore/internal/workload"
)

// Maintain-vs-recompute experiment: measured evidence for the batch
// execution switch. The name "parallel" predates the switch and is kept so
// BENCH_parallel.json and the CI step that runs it keep their names. Two
// questions, one row group each:
//
//  1. engine/apply-batch — the headline engine benchmark (10k-edge batch
//     into an empty engine) on the default path. The batch equals the
//     whole graph, so the cost model routes it to one O(m+n) recomputation.
//     engine/apply-batch/maintain forces the same workload down the
//     incremental path (recompute disabled). With -min-speedup the run
//     fails unless maintain ÷ apply-batch reaches the bound: the switch
//     must still route the build batch to recomputation, and recomputation
//     must still win.
//  2. engine/rebuild-crossover/* — maintain vs recompute for growing batch
//     fractions of m, locating the crossover the cost model's default
//     fraction is calibrated from.

// parallelExperiment runs the experiment and returns the structured results.
func parallelExperiment(cfg bench.Config, minSpeedup float64) []bench.Result {
	cfg = cfg.WithDefaults()
	bench.PrintResultHeader(cfg.Out)
	rows := applyBatchRows(cfg)
	speedup := rows[1].NsPerOp / rows[0].NsPerOp
	rows[0].Params["speedup_vs_maintain"] = speedup
	fmt.Fprintf(cfg.Out, "%-28s %.2fx (maintain %.0f ns/batch, default %.0f ns/batch)\n",
		"engine/apply-batch-speedup", speedup, rows[1].NsPerOp, rows[0].NsPerOp)
	if err := speedupGate("engine/apply-batch/maintain ÷ engine/apply-batch", speedup, minSpeedup); err != nil {
		fatal(err)
	}
	return append(rows, crossoverRows(cfg)...)
}

// applyBatchRows mirrors the hotpath experiment's engine/apply-batch
// workload exactly (same generator, sizes, and seed), so the rows are
// comparable across BENCH_*.json files.
func applyBatchRows(cfg bench.Config) []bench.Result {
	g := gen.BarabasiAlbert(max(cfg.Edges/3, 100), 4, cfg.Seed)
	all := g.Edges()
	if len(all) > cfg.Edges {
		all = all[:cfg.Edges]
	}
	batch := make(kcore.Batch, len(all))
	for i, ed := range all {
		batch[i] = kcore.Add(ed[0], ed[1])
	}
	params := map[string]any{
		"edges": len(all), "graph": "barabasi-albert", "seed": cfg.Seed,
	}
	var results []bench.Result
	for _, row := range []struct {
		name string
		opts []kcore.Option
	}{
		{"engine/apply-batch", nil},
		{"engine/apply-batch/maintain", []kcore.Option{kcore.WithRebuildThreshold(-1, 0)}},
	} {
		results = append(results, bench.RunMeasured(cfg.Out, row.name, params,
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e := kcore.NewEngine(row.opts...)
					b.StartTimer()
					if _, err := e.Apply(batch); err != nil {
						b.Fatal(err)
					}
				}
			}))
	}
	return results
}

// crossoverRows times the same pure-insertion batch through forced
// maintenance and forced recomputation for growing batch fractions of m.
// The fraction where the recompute row undercuts the maintain row is the
// calibration point for WithRebuildThreshold's default.
func crossoverRows(cfg bench.Config) []bench.Result {
	n := max(cfg.Edges, 1000)
	m := 3 * n
	base := gen.ErdosRenyi(n, m, cfg.Seed+2)
	baseEdges := base.Edges()
	var results []bench.Result
	for _, frac := range []float64{0.02, 0.05, 0.10, 0.20, 0.40} {
		count := int(frac * float64(m))
		if count < 1 {
			continue
		}
		inserts := workload.SampleNonEdges(base, count, cfg.Seed+3)
		batch := make(kcore.Batch, len(inserts))
		for i, ed := range inserts {
			batch[i] = kcore.Add(ed.U, ed.V)
		}
		for _, mode := range []string{"maintain", "rebuild"} {
			const rounds = 3
			var best time.Duration
			for r := 0; r < rounds; r++ {
				opt := kcore.WithRebuildThreshold(1, 0)
				if mode == "maintain" {
					opt = kcore.WithRebuildThreshold(-1, 0)
				}
				e, err := kcore.FromEdges(baseEdges, opt)
				if err != nil {
					panic(err)
				}
				start := time.Now()
				info, err := e.Apply(batch)
				if err != nil {
					panic(err)
				}
				if (mode == "rebuild") != info.Recomputed {
					panic("crossover row executed on the wrong path")
				}
				if d := time.Since(start); r == 0 || d < best {
					best = d
				}
			}
			params := bench.StampParams(map[string]any{
				"graph_n": n, "graph_m": m, "batch": count, "frac": frac,
				"mode": mode,
				"unit": "ns per whole batch", "rounds": rounds,
			})
			name := fmt.Sprintf("engine/rebuild-crossover/f%03.0f/%s", frac*100, mode)
			res := bench.Result{Name: name, NsPerOp: float64(best.Nanoseconds()),
				Iterations: rounds, Params: params}
			fmt.Fprintf(cfg.Out, "%-28s %14.0f %12s %12s\n", name, res.NsPerOp, "-", "-")
			results = append(results, res)
		}
	}
	return results
}
