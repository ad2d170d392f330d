package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricSpec names one reported metric. The two lists below are the
// benchmark's contract with BENCHMARK.json (TestRegistryMatchesBenchmarkJSON
// keeps them in step): a run with tracing off reports every end-to-end
// metric, a traced run every per-layer metric.
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the figures a user of kcore-serve waits for, measured with
// tracing off against the real binary. Every workload reports all of them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ingest_updates_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer figures of a traced run, plus the
// end-to-end figures that cannot carry a regression bound: the ingest
// tails (their spread across seeds is too wide: the p90 on serve-mixed,
// where a few costly insertions set it, the p99 on durable-watch, where
// fsync does), figures that exist on only one workload (query_*, watch_*,
// recover_s), and error_frac, which is zero on a healthy run. Figures of a
// layer a workload does not exercise read 0.
var perLayer = []metricSpec{
	{"calib.effective_cores", "cores"},
	{"calib.nproc", "count"},
	{"calib.gomaxprocs", "count"},
	{"ingest_p90_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"query_core_p50_us", "us"},
	{"query_core_p99_us", "us"},
	{"query_kcore_p50_us", "us"},
	{"query_kcore_p99_us", "us"},
	{"watch_p50_ms", "ms"},
	{"recover_s", "s"},
	{"error_frac", "ratio"},
	{"korder.insert_ns_per_update", "ns"},
	{"korder.remove_ns_per_update", "ns"},
	{"korder.visited_per_insert", "count"},
	{"korder.changed_per_update", "count"},
	{"korder.changed_per_visited", "ratio"},
	{"kcore.execute_p50_us", "us"},
	{"kcore.execute_p99_us", "us"},
	{"kcore.overhead_ns_per_update", "ns"},
	{"kcore.exec_parallel_frac", "ratio"},
	{"kcore.exec_recomputed", "count"},
	{"kcore.load_s", "s"},
	{"parallel.auto_over_w1", "ratio"},
	{"server.batch_self_p50_us", "us"},
	{"server.batch_self_p99_us", "us"},
	{"server.core_p50_us", "us"},
	{"server.kcore_p50_us", "us"},
	{"server.flushes_per_request", "ratio"},
	{"server.watch_dropped", "count"},
	{"http.batch_p50_us", "us"},
	{"http.query_p50_us", "us"},
	{"wire.batch_encode_ns_per_update", "ns"},
	{"wire.batch_decode_ns_per_update", "ns"},
	{"persist.hook_p50_us", "us"},
	{"persist.fsyncs_per_batch", "ratio"},
	{"persist.compactions", "count"},
	{"persist.recover_records", "count"},
	{"persist.disk_bytes_per_update", "B"},
	{"decomp.peel_s", "s"},
	{"proc.cpu_us_per_update", "us"},
	{"loadgen.late_p99_us", "us"},
	{"ledger.sum_us", "us"},
	{"ledger.traced_e2e_us", "us"},
	{"ledger.residual_us", "us"},
	{"ledger.tracing_overhead_us", "us"},
}

// sample is one metric's value with the number of observations behind it
// (0 for a layer the workload does not exercise); q is the quantile a tail
// percentile reads (0 otherwise).
type sample struct {
	value float64
	n     int
	q     float64
}

// metrics collects a run's figures by name.
type metrics map[string]sample

func (m metrics) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, n = 0, 0
	}
	m[name] = sample{value: v, n: n}
}

// pct sets name to the q-quantile of xs.
func (m metrics) pct(name string, xs []float64, q float64) {
	m.set(name, quantile(xs, q), len(xs))
	if q > 0.5 {
		s := m[name]
		s.q = q
		m[name] = s
	}
}

// result is the run's final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable table of specs and then the JSON result
// line, which must come last on standard output. A spec missing from m is a
// bug in the benchmark and fails the run.
func emit(w io.Writer, specs []metricSpec, m metrics, attempted, failed int) error {
	res := result{Correct: true, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d", s.name, v.value, s.unit, v.n)
		if v.q > 0 {
			// A tail is trusted only with at least ten samples beyond it.
			fmt.Fprintf(w, " (%d beyond)", int(float64(v.n)*(1-v.q)))
		}
		fmt.Fprintln(w)
		res.Metrics[s.name] = metricValue{Value: v.value, Unit: s.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. It returns 0 for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// durs converts durations to float64 in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// median is the 0.5-quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
