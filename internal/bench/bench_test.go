package bench

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"kcore/internal/datasets"
)

// tinyConfig keeps experiment runtime small: three reduced datasets and a
// few hundred workload edges.
func tinyConfig(out *strings.Builder) Config {
	return Config{
		Out:      out,
		Edges:    300,
		Groups:   4,
		Hops:     []int{2, 3},
		Seed:     7,
		Datasets: datasets.Small(),
	}
}

func TestTableI(t *testing.T) {
	var out strings.Builder
	rows := TableI(tinyConfig(&out))
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.N == 0 || r.M == 0 || r.MaxCore == 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Fatal("missing header")
	}
}

func TestFig1And2ShapeClaims(t *testing.T) {
	var out strings.Builder
	cfg := tinyConfig(&out)
	rows1 := Fig1(cfg)
	if len(rows1) != 3 {
		t.Fatalf("fig1 rows=%d", len(rows1))
	}
	for _, r := range rows1 {
		// Paper claim: the order-based algorithm's visited counts are
		// concentrated in the small buckets — the fraction of insertions
		// visiting <=10 vertices is at least as high as the traversal's.
		ordSmall := r.Order[0] + r.Order[1]
		travSmall := r.Traversal[0] + r.Traversal[1]
		if ordSmall+1e-9 < travSmall {
			t.Errorf("%s: order small-bucket mass %.3f < traversal %.3f",
				r.Dataset, ordSmall, travSmall)
		}
	}
	rows2 := Fig2(cfg)
	for _, r := range rows2 {
		// Paper claims: the order-based ratio is small (<4 on the paper's
		// real graphs; the synthetic analogs at tiny scale are noisier, so
		// assert a loose absolute bound) and never above the traversal's.
		if r.OrderRatio > 25 {
			t.Errorf("%s: order ratio %.2f implausibly large", r.Dataset, r.OrderRatio)
		}
		if r.OrderRatio > r.TraversalRatio*1.05+1e-9 {
			t.Errorf("%s: order ratio %.2f above traversal %.2f",
				r.Dataset, r.OrderRatio, r.TraversalRatio)
		}
	}
}

func TestFig5(t *testing.T) {
	var out strings.Builder
	cfg := tinyConfig(&out)
	rows := Fig5(cfg)
	if len(rows) != 2 {
		t.Fatalf("fig5 rows=%d", len(rows))
	}
	for _, r := range rows {
		// CDFs are monotone and end at 1 (sizes are bounded by n <= 10000
		// for the tiny datasets).
		for _, series := range [][]float64{r.PC, r.SC, r.OC} {
			for i := 1; i < len(series); i++ {
				if series[i]+1e-9 < series[i-1] {
					t.Fatalf("%s: CDF not monotone: %v", r.Dataset, series)
				}
			}
			if series[len(series)-1] < 0.999 {
				t.Fatalf("%s: CDF does not reach 1: %v", r.Dataset, series)
			}
		}
		// Paper claim: oc is stochastically smaller than pc (its CDF is
		// pointwise at least as large).
		for i := range r.OC {
			if r.OC[i]+0.05 < r.PC[i] {
				t.Errorf("%s: oc CDF %.3f below pc CDF %.3f at threshold %d",
					r.Dataset, r.OC[i], r.PC[i], Fig5Thresholds[i])
			}
		}
	}
}

func TestFig9(t *testing.T) {
	var out strings.Builder
	rows := Fig9(tinyConfig(&out))
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Small <= 0 || r.Large <= 0 || r.Random <= 0 {
			t.Fatalf("%s: degenerate ratios %+v", r.Dataset, r)
		}
		// Paper claim (Fig. 9): small deg+ first never loses badly; allow
		// small noise at tiny scale.
		if r.Small > r.Large*1.5 && r.Small > r.Random*1.5 {
			t.Errorf("%s: small-first ratio %.2f dominates large %.2f / random %.2f",
				r.Dataset, r.Small, r.Large, r.Random)
		}
	}
}

func TestFig10(t *testing.T) {
	var out strings.Builder
	rows := Fig10(tinyConfig(&out))
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.CoreCDF[len(r.CoreCDF)-1] < 0.999 {
			t.Fatalf("%s: core CDF does not reach 1", r.Dataset)
		}
		if r.EdgeKCDF[len(r.EdgeKCDF)-1] < 0.999 {
			t.Fatalf("%s: edge-K CDF does not reach 1", r.Dataset)
		}
	}
}

func TestFig11(t *testing.T) {
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Edges = 150
	rows := Fig11(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if len(r.VaryV) != 5 || len(r.VaryE) != 5 {
			t.Fatalf("%s: series lengths %d/%d", r.Dataset, len(r.VaryV), len(r.VaryE))
		}
		// Edge ratio grows with the vertex sampling rate.
		if r.VaryV[0].EdgeRatio >= r.VaryV[4].EdgeRatio {
			t.Errorf("%s: edge ratio not increasing: %v", r.Dataset, r.VaryV)
		}
	}
}

func TestFig12(t *testing.T) {
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Edges = 100
	rows := Fig12(cfg)
	if len(rows) != 9 { // 3 datasets x 3 removal probabilities
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if len(r.GroupSec) != cfg.Groups {
			t.Fatalf("%s p=%.1f: groups=%d", r.Dataset, r.P, len(r.GroupSec))
		}
	}
}

func TestTableII(t *testing.T) {
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Edges = 200
	rows := TableII(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.OrderInsert <= 0 || r.OrderRemove <= 0 {
			t.Fatalf("%s: zero order times", r.Dataset)
		}
		for _, h := range cfg.Hops {
			if r.TravInsert[h] <= 0 || r.TravRemove[h] <= 0 {
				t.Fatalf("%s: zero traversal times (h=%d)", r.Dataset, h)
			}
		}
	}
	if !strings.Contains(out.String(), "Table II") {
		t.Fatal("missing header")
	}
}

func TestTableIII(t *testing.T) {
	var out strings.Builder
	rows := TableIII(tinyConfig(&out))
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Order <= 0 {
			t.Fatalf("%s: zero build time", r.Dataset)
		}
	}
}

func TestAblationOrderStructure(t *testing.T) {
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Edges = 200
	rows := AblationOrderStructure(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.TreapSec <= 0 || r.TagSec <= 0 || r.TreapBuild <= 0 || r.TagBuild <= 0 {
			t.Fatalf("%s: zero times %+v", r.Dataset, r)
		}
	}
	if !strings.Contains(out.String(), "Ablation") {
		t.Fatal("missing header")
	}
}

func TestAblationHeuristicTiming(t *testing.T) {
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Edges = 200
	rows := AblationHeuristicTiming(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Small <= 0 || r.Large <= 0 || r.Random <= 0 {
			t.Fatalf("%s: zero times %+v", r.Dataset, r)
		}
	}
}

func TestBaselineSearchSpace(t *testing.T) {
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Edges = 200
	rows := BaselineSearchSpace(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		// Section II lineage: order-based search space <= traversal's <=
		// the whole subcore (allowing small measurement noise).
		if r.Order > r.Traversal*1.05+1e-9 {
			t.Errorf("%s: order %.2f above traversal %.2f", r.Dataset, r.Order, r.Traversal)
		}
		if r.Traversal > r.Subcore*1.05+1e-9 {
			t.Errorf("%s: traversal %.2f above subcore %.2f", r.Dataset, r.Traversal, r.Subcore)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(ExperimentNames) != len(Experiments) {
		t.Fatalf("registry mismatch: %d names, %d experiments",
			len(ExperimentNames), len(Experiments))
	}
	for _, name := range ExperimentNames {
		if _, ok := Experiments[name]; !ok {
			t.Fatalf("experiment %q missing from map", name)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Edges != 10000 || c.Groups != 10 || len(c.Hops) != 5 || c.Seed == 0 {
		t.Fatalf("defaults = %+v", c)
	}
	if len(c.Datasets) != 11 {
		t.Fatalf("default datasets = %d", len(c.Datasets))
	}
	if c.Out == nil {
		t.Fatal("Out default missing")
	}
}

func TestTemporalSelection(t *testing.T) {
	if !temporal("facebook-sim") || !temporal("dblp-sim") || temporal("ca-sim") {
		t.Fatal("temporal classification wrong")
	}
}

// TestHotpath runs the hot-path experiments with a single-iteration
// runner (full auto-tuned runs happen in kcore-bench) and checks the
// table and the JSON report shape.
func TestHotpath(t *testing.T) {
	orig := benchRunner
	benchRunner = func(f func(b *testing.B)) testing.BenchmarkResult {
		b := &testing.B{N: 1}
		f(b)
		return testing.BenchmarkResult{N: 1, T: 1}
	}
	defer func() { benchRunner = orig }()

	var out strings.Builder
	cfg := tinyConfig(&out)
	results := Hotpath(cfg)
	if len(results) == 0 {
		t.Fatal("no hotpath results")
	}
	for _, r := range results {
		if r.Name == "" || r.Iterations != 1 {
			t.Fatalf("malformed result %+v", r)
		}
		if !strings.Contains(out.String(), r.Name) {
			t.Fatalf("table missing row for %s", r.Name)
		}
	}

	rep := NewReport()
	rep.Results = results
	var buf strings.Builder
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != ReportSchema || len(back.Results) != len(results) {
		t.Fatalf("round-tripped report = %+v", back)
	}
}

func TestStampParams(t *testing.T) {
	in := map[string]any{"edges": 10}
	p := StampParams(in)
	if len(in) != 1 {
		t.Fatalf("StampParams mutated its input: %v", in)
	}
	if p["edges"] != 10 || p["gomaxprocs"] != runtime.GOMAXPROCS(0) || p["cpus"] != runtime.NumCPU() {
		t.Fatalf("params = %v", p)
	}
	// 1.0 when two spinners serialize, 2.0 when they run in parallel; a
	// busy host can push it either way, so only the sign and scale are
	// checked.
	if c, ok := p["effective_cores"].(float64); !ok || c <= 0 || c > 4 {
		t.Fatalf("effective_cores = %v, want a float in (0, 4]", p["effective_cores"])
	}
}
