package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSteadyRunPasses: a current report within every tolerance passes.
func TestSteadyRunPasses(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-baseline", "testdata/baseline.json", "-current", "testdata/steady.json",
	}, &out)
	if err != nil {
		t.Fatalf("steady run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "benchdiff: ok") {
		t.Errorf("missing ok verdict:\n%s", out.String())
	}
	// -json - prints the verdict document in place of the table.
	out.Reset()
	if err := run([]string{"-baseline", "testdata/baseline.json", "-current", "testdata/steady.json", "-json", "-"}, &out); err != nil {
		t.Fatal(err)
	}
	var v Verdict
	if err := json.Unmarshal(out.Bytes(), &v); err != nil || !v.OK {
		t.Errorf("-json - printed %q (%v), want an ok verdict document", out.String(), err)
	}
}

// TestRegressionFails: a slowed-down report exits with errRegression and
// names the offending metrics.
func TestRegressionFails(t *testing.T) {
	jsonOut := filepath.Join(t.TempDir(), "verdict.json")
	var out bytes.Buffer
	err := run([]string{
		"-baseline", "testdata/baseline.json", "-current", "testdata/regressed.json",
		"-json", jsonOut,
	}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("err = %v, want errRegression", err)
	}
	for _, want := range []string{"REGRESSION", "ns_per_op", "sims_per_sec", "prefill_hit_rate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}

	raw, rerr := os.ReadFile(jsonOut)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var v Verdict
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("verdict JSON invalid: %v", err)
	}
	if v.Schema != "elision-benchdiff/v1" || v.OK {
		t.Fatalf("verdict = %+v, want schema elision-benchdiff/v1 and ok=false", v)
	}
	failed := map[string]bool{}
	for _, c := range v.Checks {
		if !c.OK {
			failed[c.Workload+"/"+c.Metric] = true
		}
	}
	for _, want := range []string{
		"rbtree-hle-mcs-8t/ns_per_op",
		"sched-advance-8t/sim_cycles_per_op",
		"campaign/sims_per_sec",
		"campaign/prefill_hit_rate",
	} {
		if !failed[want] {
			t.Errorf("check %s did not fail; failures: %v", want, failed)
		}
	}
	// Within-tolerance metrics must not fail.
	if failed["sched-advance-8t/ns_per_op"] {
		t.Error("sched-advance ns_per_op is within tolerance but failed")
	}
}

// TestSimDriftGatedExactly: a one-cycle fingerprint drift fails even when
// every host-time tolerance passes, and -allow-sim-drift waives it.
func TestSimDriftGatedExactly(t *testing.T) {
	drifted := filepath.Join(t.TempDir(), "drifted.json")
	raw, err := os.ReadFile("testdata/steady.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(drifted, bytes.Replace(raw, []byte("402592"), []byte("402593"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-baseline", "testdata/baseline.json", "-current", drifted}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("sim drift not caught: err = %v", err)
	}
	out.Reset()
	err = run([]string{"-baseline", "testdata/baseline.json", "-current", drifted, "-allow-sim-drift"}, &out)
	if err != nil {
		t.Fatalf("-allow-sim-drift did not waive the drift: %v\n%s", err, out.String())
	}
}

// TestMissingWorkloadFails: a workload dropped from the current report is a
// regression (the suite shrank), not a silent pass.
func TestMissingWorkloadFails(t *testing.T) {
	short := filepath.Join(t.TempDir(), "short.json")
	raw, err := os.ReadFile("testdata/steady.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	rep["workloads"] = rep["workloads"].([]any)[:1]
	enc, _ := json.Marshal(rep)
	if err := os.WriteFile(short, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-baseline", "testdata/baseline.json", "-current", short}, &out); !errors.Is(err, errRegression) {
		t.Fatalf("missing workload not caught: err = %v", err)
	}
	if !strings.Contains(out.String(), "present") {
		t.Errorf("table lacks the presence check:\n%s", out.String())
	}
}

// TestCommittedBaselineSelfDiff: the committed trajectory head compared
// against itself passes every gate — the CI job's degenerate case.
func TestCommittedBaselineSelfDiff(t *testing.T) {
	path := "../../BENCH_simulator.json"
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	var out bytes.Buffer
	if err := run([]string{"-baseline", path, "-current", path}, &out); err != nil {
		t.Fatalf("self-diff failed: %v\n%s", err, out.String())
	}
}

// TestLintPromMode: -lint-prom accepts a valid exposition and rejects a
// corrupt one.
func TestLintPromMode(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.prom")
	bad := filepath.Join(dir, "bad.prom")
	if err := os.WriteFile(good, []byte("# TYPE m counter\nm{a=\"x\"} 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("m{a=x} 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-lint-prom", good}, &out); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if err := run([]string{"-lint-prom", bad}, &out); err == nil {
		t.Fatal("invalid exposition accepted")
	}
}

// TestFlagValidation: missing inputs, negative tolerances and stray
// arguments are usage errors, not panics or silent passes.
func TestFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"no inputs":     {},
		"only baseline": {"-baseline", "testdata/baseline.json"},
		"negative tol":  {"-baseline", "testdata/baseline.json", "-current", "testdata/steady.json", "-tol-ns", "-1"},
		"stray arg":     {"-baseline", "testdata/baseline.json", "-current", "testdata/steady.json", "extra"},
		"missing file":  {"-baseline", "testdata/nope.json", "-current", "testdata/steady.json"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || errors.Is(err, errRegression) {
			t.Errorf("%s: err = %v, want usage error", name, err)
		}
	}
}

// TestFlightOverheadGate: the flight-recorder overhead ratio is gated
// absolutely against -tol-flight-ratio when the current report carries the
// measurement, and skipped (not failed) when it does not.
func TestFlightOverheadGate(t *testing.T) {
	raw, err := os.ReadFile("testdata/steady.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, ratio float64) string {
		if ratio > 0 {
			rep["flight"] = map[string]any{
				"unobserved_ns_per_op": 1e6, "flight_ns_per_op": ratio * 1e6, "ratio": ratio,
			}
		} else {
			delete(rep, "flight")
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	within := write("within.json", 1.4)
	var out bytes.Buffer
	if err := run([]string{"-baseline", "testdata/baseline.json", "-current", within}, &out); err != nil {
		t.Fatalf("ratio 1.4 under default cap failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "overhead_ratio") {
		t.Errorf("verdict table lacks the flight check:\n%s", out.String())
	}

	over := write("over.json", 1.4)
	out.Reset()
	err = run([]string{"-baseline", "testdata/baseline.json", "-current", over, "-tol-flight-ratio", "1.2"}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("ratio 1.4 over a 1.2 cap: err = %v, want errRegression", err)
	}
	if !strings.Contains(out.String(), "overhead_ratio") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("regression verdict lacks the flight check:\n%s", out.String())
	}

	absent := write("absent.json", 0)
	out.Reset()
	if err := run([]string{"-baseline", "testdata/baseline.json", "-current", absent}, &out); err != nil {
		t.Fatalf("report without a flight block failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "overhead_ratio") {
		t.Errorf("flight check gated a report without the measurement:\n%s", out.String())
	}
}
