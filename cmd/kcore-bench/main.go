// Command kcore-bench regenerates the paper's tables and figures on the
// synthetic dataset analogs and runs the engine- and service-level
// experiments whose recorded results live in the BENCH_*.json files
// (EXPERIMENTS.md records and explains the measured outputs).
//
// Usage:
//
//	kcore-bench                                 run every paper experiment
//	kcore-bench -experiment table2 -edges 2000  one experiment, custom size
//	kcore-bench -datasets facebook-sim,ca-sim   restrict datasets
//	kcore-bench -experiment hotpath -json out.json   machine-readable results
//	kcore-bench -experiment parallel -min-speedup 1.5 -json BENCH_parallel.json
//	kcore-bench -experiment serve2 -fanout 100,1000,10000 -json BENCH_serve.json
//
// -min-speedup turns parallel, serve2 and readpath into gates: the run
// exits non-zero unless the experiment's headline ratio reaches the bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"kcore"
	"kcore/internal/bench"
	"kcore/internal/datasets"
	"kcore/internal/gen"
)

// measuredExperiments are the engine- and service-level experiments this
// command runs itself, on top of the paper's registry in internal/bench.
var measuredExperiments = []string{"parallel", "serve2", "persist", "replicate", "chaos", "readpath"}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment name: all|"+strings.Join(measuredExperiments, "|")+"|"+strings.Join(bench.ExperimentNames, "|"))
		edges      = flag.Int("edges", 10000, "workload edges per dataset (paper: 100000)")
		groups     = flag.Int("groups", 10, "stability-test groups (paper: 100)")
		hops       = flag.String("hops", "2,3,4,5,6", "traversal hop variants")
		seed       = flag.Uint64("seed", 42, "RNG seed")
		dsNames    = flag.String("datasets", "", "comma-separated dataset subset (default: all 11)")
		jsonPath   = flag.String("json", "", "write measured results (hotpath and the engine- and service-level experiments) as one JSON document to this path")
		fanout     = flag.String("fanout", "100,1000,10000", "watcher tiers the serve2 fan-out sweep runs")
		minSpeedup = flag.Float64("min-speedup", 0, "speedup gate (0 = off): parallel fails unless forced maintenance of the build batch is this much slower than the default recompute; serve2 unless binary ingest beats JSON by it; readpath unless epoch reads beat locked reads by it")
	)
	flag.Parse()

	cfg := bench.Config{
		Out:    os.Stdout,
		Edges:  *edges,
		Groups: *groups,
		Seed:   *seed,
	}
	for _, h := range strings.Split(*hops, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(h))
		if err != nil || v < 2 {
			fatal(fmt.Errorf("bad hop value %q", h))
		}
		cfg.Hops = append(cfg.Hops, v)
	}
	if *dsNames != "" {
		for _, name := range strings.Split(*dsNames, ",") {
			d, err := datasets.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			cfg.Datasets = append(cfg.Datasets, d)
		}
	}

	report := bench.NewReport()

	switch *experiment {
	case "parallel":
		fmt.Println("=== parallel ===")
		report.Results = append(report.Results, parallelExperiment(cfg, *minSpeedup)...)
		writeReport(report, *jsonPath)
		return
	case "serve2":
		var tiers []int
		for _, f := range strings.Split(*fanout, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad fanout tier %q", f))
			}
			tiers = append(tiers, v)
		}
		report.Results = append(report.Results, serve2Experiment(cfg, tiers, *minSpeedup)...)
		writeReport(report, *jsonPath)
		return
	case "persist":
		report.Results = append(report.Results, persistExperiment(cfg)...)
		writeReport(report, *jsonPath)
		return
	case "replicate":
		report.Results = append(report.Results, replicateExperiment(cfg)...)
		writeReport(report, *jsonPath)
		return
	case "chaos":
		fmt.Println("=== chaos ===")
		report.Results = append(report.Results, chaosExperiment(cfg)...)
		writeReport(report, *jsonPath)
		return
	case "readpath":
		fmt.Println("=== readpath ===")
		report.Results = append(report.Results, readpathExperiment(cfg, *minSpeedup)...)
		writeReport(report, *jsonPath)
		return
	case "hotpath":
		fmt.Println("=== hotpath ===")
		report.Results = append(report.Results, bench.Hotpath(cfg)...)
		report.Results = append(report.Results, engineHotpath(*edges, *seed)...)
		writeReport(report, *jsonPath)
		return
	}

	names := bench.ExperimentNames
	if *experiment != "all" {
		if _, ok := bench.Experiments[*experiment]; !ok {
			fatal(fmt.Errorf("unknown experiment %q (valid: all, %s, %s)", *experiment,
				strings.Join(measuredExperiments, ", "), strings.Join(bench.ExperimentNames, ", ")))
		}
		names = []string{*experiment}
	}
	for _, name := range names {
		fmt.Printf("=== %s ===\n", name)
		if name == "hotpath" {
			// Capture hotpath's structured results instead of the
			// registry's discard-results wrapper.
			report.Results = append(report.Results, bench.Hotpath(cfg)...)
			report.Results = append(report.Results, engineHotpath(*edges, *seed)...)
			continue
		}
		bench.Experiments[name](cfg)
	}
	writeReport(report, *jsonPath)
}

// writeReport writes the JSON document when -json was given. An empty
// result list still produces a valid (schema-stamped) report.
func writeReport(r *bench.Report, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := r.Write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d results to %s\n", len(r.Results), path)
}

// engineHotpath measures the public-API hot path (Apply over a 10k-edge
// batch and the per-edge loop) with allocation counters; the maintainer-
// and structure-level experiments live in internal/bench.
func engineHotpath(edges int, seed uint64) []bench.Result {
	g := gen.BarabasiAlbert(max(edges/3, 100), 4, seed)
	all := g.Edges()
	if len(all) > edges {
		all = all[:edges]
	}
	batch := make(kcore.Batch, len(all))
	for i, ed := range all {
		batch[i] = kcore.Add(ed[0], ed[1])
	}
	params := map[string]any{"edges": len(all), "graph": "barabasi-albert", "seed": seed}

	var results []bench.Result
	run := func(name string, fn func(b *testing.B)) {
		results = append(results, bench.RunMeasured(os.Stdout, name, params, fn))
	}
	run("engine/apply-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := kcore.NewEngine()
			b.StartTimer()
			if _, err := e.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("engine/per-edge-add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := kcore.NewEngine()
			b.StartTimer()
			for _, ed := range all {
				if _, err := e.AddEdge(ed[0], ed[1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	return results
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kcore-bench:", err)
	os.Exit(1)
}

// speedupGate is the -min-speedup check every gated experiment shares: it
// fails when got, the ratio name describes (e.g. "serve2/ingest-json ÷
// serve2/ingest-binary"), is below bound. A bound <= 0 disables the gate.
func speedupGate(name string, got, bound float64) error {
	if bound > 0 && got < bound {
		return fmt.Errorf("%s = %.2fx is below the required %.2fx", name, got, bound)
	}
	return nil
}
