// Command kcbench is the repository benchmark: it boots the real
// kcore-serve binary, drives one workload against it through the public
// client (binary batch protocol), checks every run against a static-peel
// oracle, and prints the end-to-end metrics. With --trace 1 it also runs
// the same inputs through a traced in-process stack and each layer's
// public functions, and prints the per-layer metrics and a cost ledger.
//
// Run it through run.sh, which builds kcore-serve and this program first:
//
//	bash kcbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics with their units. README.md describes the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kcore/internal/server/wire"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	serveBin string
	workDir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("kcbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name: paper-churn, serve-mixed, durable-watch, or all (each in turn, one result line each)")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: also run the traced layer replay and report per-layer metrics instead")
	fs.BoolVar(&opt.tiny, "tiny", false, "tiny graphs, for tests")
	fs.StringVar(&opt.serveBin, "serve-bin", "kcore-serve", "kcore-serve binary to benchmark")
	fs.StringVar(&opt.workDir, "work-dir", os.TempDir(), "directory for edge files and data directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	todo := workloads
	if opt.workload != "all" {
		w, err := findWorkload(opt.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kcbench:", err)
			return 2
		}
		todo = []workloadSpec{w}
	}
	code := 0
	for _, w := range todo {
		if err := bench(w, opt, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "kcbench: %s: FAIL: %v\n", w.name, err)
			fmt.Fprintln(stdout, `{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}`)
			code = 1
		}
	}
	return code
}

func bench(w workloadSpec, opt options, out io.Writer) error {
	ctx := context.Background()
	fmt.Fprintf(out, "kcbench %s seed=%d seconds=%g trace=%v tiny=%v\n", w.name, opt.seed, opt.seconds, opt.trace, opt.tiny)
	cal := calibrate()
	fmt.Fprintf(out, "calibration: nproc=%d GOMAXPROCS=%d one spinner %v, two spinners %v -> effective parallelism %.2f cores\n",
		cal.nproc, cal.gomaxprocs, cal.one.Round(time.Microsecond), cal.two.Round(time.Microsecond), cal.effectiveCores())

	start := time.Now()
	in := generate(w, opt.seed, opt.seconds, opt.tiny)
	fmt.Fprintf(out, "inputs: %d preloaded edges, %d write units, %d scheduled reads (generated in %v, not timed)\n",
		len(in.edges), len(in.units), len(in.reads), time.Since(start).Round(time.Millisecond))

	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(opt.workDir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e2e, err := runE2E(ctx, w, in, opt, dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "oracle: served cores equal kcore.Decompose of the tracked edge set at the last acked seq %d",
		e2e.load.batches[len(e2e.load.batches)-1].seq)
	if w.durable {
		fmt.Fprintf(out, "; after %d reboots too", len(e2e.recover))
	}
	if w.watch {
		fmt.Fprintf(out, "; watcher saw every acked core change, none lost")
	}
	fmt.Fprintln(out)

	m := metrics{}
	m.set("calib.effective_cores", cal.effectiveCores(), 1)
	m.set("calib.nproc", float64(cal.nproc), 1)
	m.set("calib.gomaxprocs", float64(cal.gomaxprocs), 1)
	attempted, failed := e2eMetrics(m, w, e2e)
	specs := endToEnd
	if opt.trace {
		if err := runTraced(ctx, w, in, opt, dir, e2e, m, out); err != nil {
			return err
		}
		specs = perLayer
	}
	return emit(out, specs, m, attempted, failed)
}

// e2eMetrics sets every metric the untraced run measures and returns the
// requests attempted and failed (reads that failed, plus watch events the
// server reported lost; a failed write has already failed the run).
func e2eMetrics(m metrics, w workloadSpec, r *e2eRun) (attempted, failed int) {
	setup := durs(r.setup, time.Second)
	m.set("setup_s", median(setup), len(setup))
	ld := r.load
	var applied, all int
	var lat []time.Duration
	for _, b := range ld.batches {
		all += b.applied
		if b.measured {
			applied += b.applied
			lat = append(lat, b.lat)
		}
	}
	window := (ld.measEnd - ld.measStart).Seconds()
	m.set("ingest_updates_per_s", float64(applied)/window, applied)
	ms := durs(lat, time.Millisecond)
	m.pct("ingest_p50_ms", ms, 0.5)
	m.pct("ingest_p90_ms", ms, 0.9)
	m.pct("ingest_p99_ms", ms, 0.99)
	m.set("peak_rss_mb", r.peakRSSMB, 1)

	var core, kc, late []float64
	var readErrs int
	for _, rd := range ld.reads {
		late = append(late, float64(rd.late)/float64(time.Microsecond))
		switch {
		case rd.err:
			readErrs++
		case rd.kcore:
			kc = append(kc, float64(rd.lat)/float64(time.Microsecond))
		default:
			core = append(core, float64(rd.lat)/float64(time.Microsecond))
		}
	}
	m.pct("query_core_p50_us", core, 0.5)
	m.pct("query_core_p99_us", core, 0.99)
	m.pct("query_kcore_p50_us", kc, 0.5)
	m.pct("query_kcore_p99_us", kc, 0.99)
	m.pct("loadgen.late_p99_us", late, 0.99)
	wl := durs(watchLatencies(ld), time.Millisecond)
	m.pct("watch_p50_ms", wl, 0.5)
	rec := durs(r.recover, time.Second)
	m.set("recover_s", median(rec), len(rec))

	attempted = len(ld.batches) + len(ld.reads)
	failed = readErrs + int(ld.lagged)
	m.set("error_frac", float64(failed)/float64(attempted), attempted)

	b, a := r.before, r.after
	ex := func(s wire.ExecStats) float64 { return float64(s.Sequential + s.Replayed + s.Live + s.Recomputed) }
	total := ex(a.Exec) - ex(b.Exec)
	m.set("kcore.exec_parallel_frac", float64(a.Exec.Replayed+a.Exec.Live-b.Exec.Replayed-b.Exec.Live)/total, int(total))
	m.set("kcore.exec_recomputed", float64(a.Exec.Recomputed-b.Exec.Recomputed), int(total))
	reqs := float64(a.Ingest.Requests - b.Ingest.Requests)
	m.set("server.flushes_per_request", float64(a.Ingest.Flushes-b.Ingest.Flushes)/reqs, int(reqs))
	m.set("server.watch_dropped", float64(ld.lagged), len(ld.events))
	var syncs, compactions float64
	if a.Persist != nil && b.Persist != nil {
		syncs = float64(a.Persist.Syncs - b.Persist.Syncs)
		compactions = float64(a.Persist.Compactions - b.Persist.Compactions)
	}
	m.set("persist.fsyncs_per_batch", syncs/float64(len(ld.batches)), len(ld.batches))
	m.set("persist.compactions", compactions, 1)
	m.set("persist.recover_records", float64(r.recovered), len(r.recover))
	m.set("persist.disk_bytes_per_update", r.diskBytes/float64(all), all)
	m.set("proc.cpu_us_per_update", float64(r.cpu)/float64(time.Microsecond)/float64(all), all)
	return attempted, failed
}
