package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestTracedRunMeasuresEveryMetricAndLayersSeparate runs commit_restart
// end to end at its smallest size, traced: every declared metric must be
// measured, every check must pass, and the workload must bypass the
// layers it is designed to bypass.
func TestTracedRunMeasuresEveryMetricAndLayersSeparate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack for a few seconds")
	}
	tmp, err := newTempDirs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.removeAll()
	w := findWorkload("commit_restart")
	// The test's temp directory may be memory-backed; the numbers are not
	// compared here.
	opt := options{seed: 5, seconds: 1, traced: true, outDir: t.TempDir(), allowTmpfs: true}
	rep, err := w.run(context.Background(), opt, tmp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.checks.failed != 0 {
		t.Fatalf("%d of %d checks failed: %v", rep.checks.failed, rep.checks.attempted, rep.checks.msgs)
	}
	for _, d := range endToEnd {
		if v, ok := rep.e2e[d.Name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v (measured: %v): it must never read 0", d.Name, v, ok)
		}
	}
	for _, d := range perLayer {
		if _, ok := rep.layers[d.Name]; !ok {
			t.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	for name := range rep.layers {
		if !declared(perLayer, name) {
			t.Errorf("per-layer metric %s is measured but not declared", name)
		}
	}
	if got := rep.layers["jobs.charge.count"]; got != 0 {
		t.Errorf("commit_restart charged the ledger %v times in its timed phase, want 0", got)
	}
	if got := rep.layers["crowd.publish.count"]; got >= 10 {
		t.Errorf("commit_restart published %v HITs in its timed phase, want < 10", got)
	}
	if got := rep.layers["trace.e2e_coverage_pct"]; got < 95 {
		t.Errorf("stage spans cover %.1f %% of the median e2e span, want >= 95", got)
	}
	if _, err := os.Stat(rep.spanFile); err != nil {
		t.Errorf("span file: %v", err)
	}
	if left, _ := os.ReadDir(tmp.root); len(left) != 0 {
		t.Errorf("%d store directories left behind", len(left))
	}
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json, which the
// driver reads, in step with the tables the program reports from, and
// inside the contract's limits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %s / %s in the program", i, spec.Workloads[i], w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %s breaks the contract's naming limits (why is %d chars)", w.name, len(w.why))
		}
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program has %d", len(got), kind, len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			if got[i] != d {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, got[i], d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || seen[d.Name] {
				t.Errorf("%s metric %+v breaks the contract's naming limits", kind, d)
			}
			seen[d.Name] = true
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s bound %v is outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd, true)
	check("per-layer", spec.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	if !declared(endToEnd, "setup_s") {
		t.Error("the contract requires a setup_s metric")
	}
	// 4 + 22 runs per workload, each about run_seconds plus set-up,
	// restart, reads and verification, must fit the driver's 3420 s.
	if runs := 4 + 22*len(workloads); float64(runs)*(float64(spec.RunSeconds)+12) > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's time cap", runs, spec.RunSeconds)
	}
}
