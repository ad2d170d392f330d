package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildServe compiles kcore-serve from this checkout into a temp dir.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "kcore-serve")
	cmd := exec.Command("go", "build", "-o", bin, "kcore/cmd/kcore-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build kcore-serve: %v\n%s", err, out)
	}
	return bin
}

// lastJSON parses the result line a run ends with.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s", err, out)
	}
	return res
}

func names(specs []metricSpec) map[string]string {
	out := make(map[string]string, len(specs))
	for _, s := range specs {
		out[s.name] = s.unit
	}
	return out
}

// TestTinyWorkloads runs every workload once end to end at tiny size, with
// its oracle, and checks the printed metric set: traced runs print every
// per-layer metric, untraced runs every end-to-end metric.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots kcore-serve")
	}
	bin := buildServe(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.5",
					"--trace", trace, "--tiny", "--serve-bin", bin, "--work-dir", t.TempDir()}, &out)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				res := lastJSON(t, out.String())
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := names(endToEnd)
				if trace == "1" {
					want = names(perLayer)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, got, unit)
					}
				}
			})
		}
	}
}

// TestBadServeBinary checks that a run that cannot boot the server fails
// without printing numbers.
func TestBadServeBinary(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"--workload", "serve-mixed", "--seconds", "0.2", "--tiny",
		"--serve-bin", filepath.Join(t.TempDir(), "missing"), "--work-dir", t.TempDir()}, &out)
	if code == 0 {
		t.Fatal("run with a missing server binary exited 0")
	}
	if res := lastJSON(t, out.String()); res.Correct || len(res.Metrics) != 0 {
		t.Fatalf("failed run reported %+v", res)
	}
}

// TestSeedDeterminism checks that a seed fixes every generated input and
// another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	dump := func(w workloadSpec, seed uint64) []byte {
		var b bytes.Buffer
		if err := generate(w, seed, 1, true).dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, w := range workloads {
		a, b, c := dump(w, 7), dump(w, 7), dump(w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.name)
		}
	}
}

// TestSelfTimes checks self-time arithmetic on a synthetic span tree:
// overlapping children count once, and a child outliving its parent is
// clipped to the parent's interval.
func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},
		{Name: "a1", Start: ms(15), End: ms(20), Parent: 1},
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0},
	}
	want := []time.Duration{ms(40), ms(25), ms(30), ms(5), ms(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// TestRegistryMatchesBenchmarkJSON checks that the workloads and the metric
// names and units the program prints are the ones BENCHMARK.json declares.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, specs []metricSpec) {
		if len(declared) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(specs))
			return
		}
		for i, d := range declared {
			if d.Name != specs[i].name || d.Unit != specs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, d.Name, d.Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
