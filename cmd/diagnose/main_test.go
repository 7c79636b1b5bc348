package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elision/internal/core"
	"elision/internal/obs"
)

// runToFiles invokes the command's run() with -quick, capturing the human
// table and the JSON document.
func runToFiles(t *testing.T, extra ...string) (human, verdict []byte) {
	t.Helper()
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "verdict.json")
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	args := append([]string{"-quick", "-json", jsonPath}, extra...)
	if err := run(args, out); err != nil {
		t.Fatalf("diagnose run: %v", err)
	}
	human, err = os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	verdict, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	return human, verdict
}

// TestDiagnoseGolden is the issue's golden acceptance test: on the seed
// lemming workload the verdict document must deterministically report the
// lemming effect for fair-lock HLE and zero fallback-rooted epochs for
// opt-SLR, under a stable schema.
func TestDiagnoseGolden(t *testing.T) {
	human, verdict := runToFiles(t)

	var d struct {
		SchemaVersion int    `json:"schema_version"`
		Workload      string `json:"workload"`
		Runs          []map[string]any
	}
	if err := json.Unmarshal(verdict, &d); err != nil {
		t.Fatalf("verdict JSON does not parse: %v", err)
	}
	if d.SchemaVersion != 1 {
		t.Fatalf("schema_version = %d, want 1", d.SchemaVersion)
	}
	byPoint := map[string]map[string]any{}
	for _, r := range d.Runs {
		// Every run must carry the full field set — CI smoke depends on it.
		for _, k := range []string{
			"scheme", "lock", "lemming", "verdict", "fallback_rooted_epochs",
			"stray_roots", "mean_depth", "depth_p50", "depth_p99",
			"epochs_per_mcycle", "spec_ratio", "in_epoch_spec_ratio",
			"serialized_fraction", "throughput_lost_pct", "aux_rejoin_rate",
			"throughput_ops_per_mcycle", "aborts_by_class",
		} {
			if _, ok := r[k]; !ok {
				t.Fatalf("run %v missing field %q", r["scheme"], k)
			}
		}
		byPoint[r["scheme"].(string)+"/"+r["lock"].(string)] = r
	}

	for _, p := range []string{"hle/mcs", "hle/ticket-hle"} {
		r := byPoint[p]
		if r == nil {
			t.Fatalf("panel missing %s", p)
		}
		if r["lemming"] != true || r["fallback_rooted_epochs"].(float64) < 1 {
			t.Errorf("%s: lemming=%v epochs=%v, want lemming with >= 1 epoch",
				p, r["lemming"], r["fallback_rooted_epochs"])
		}
	}
	if r := byPoint["opt-slr/mcs"]; r == nil {
		t.Fatal("panel missing opt-slr/mcs")
	} else if r["lemming"] != false || r["fallback_rooted_epochs"].(float64) != 0 {
		t.Errorf("opt-slr/mcs: lemming=%v epochs=%v, want no fallback-rooted epochs",
			r["lemming"], r["fallback_rooted_epochs"])
	}

	if !bytes.Contains(human, []byte("lemming detected: hle over mcs")) ||
		!bytes.Contains(human, []byte("no cascade: opt-slr over mcs")) {
		t.Fatalf("human output missing verdicts:\n%s", human)
	}

	// Determinism: a second identical invocation produces byte-identical
	// documents.
	human2, verdict2 := runToFiles(t)
	if !bytes.Equal(verdict, verdict2) || !bytes.Equal(human, human2) {
		t.Fatal("diagnose output is not deterministic across identical runs")
	}
}

// TestRejectsUnknownNames: a typo in -scheme/-lock must be a hard error,
// not a silent fallback to the default panel (the old behavior happily
// diagnosed hle/mcs when asked for a scheme that does not exist).
func TestRejectsUnknownNames(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-quick", "-scheme", "hel"}, &out)
	if err == nil {
		t.Fatal("run accepted unknown scheme \"hel\"")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("hel")) ||
		!bytes.Contains([]byte(err.Error()), []byte("known:")) {
		t.Fatalf("error does not name the bad scheme and the valid set: %v", err)
	}
	if err := run([]string{"-quick", "-lock", "mcss"}, &out); err == nil {
		t.Fatal("run accepted unknown lock \"mcss\"")
	}
}

func TestRejectsMalformedFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
	if err := run([]string{"-j", "-1"}, &out); err == nil {
		t.Fatal("run accepted -j -1")
	}
	if err := run([]string{"-shards", "2"}, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Fatalf("run(-shards 2) = %v, want unknown-flag error", err)
	}
	if err := run([]string{"-quick", "extra"}, &out); err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("run(-quick extra) = %v, want unexpected-arguments error", err)
	}
	if err := run([]string{"-quick", "-scheme", "nolock"}, &out); err == nil || !strings.Contains(err.Error(), "one thread") {
		t.Fatalf("run(-quick -scheme nolock) = %v, want a one-thread error", err)
	}
}

// TestDiagnoseWorkerInvariance: the verdict document is byte-identical at
// -j 1 and -j 8.
func TestDiagnoseWorkerInvariance(t *testing.T) {
	_, v1 := runToFiles(t, "-j", "1")
	_, v8 := runToFiles(t, "-j", "8")
	if !bytes.Equal(v1, v8) {
		t.Fatal("diagnose verdict differs between -j 1 and -j 8")
	}
}

// TestDiagnosePanelFilter checks -scheme/-lock restriction, including a
// point outside the default panel.
func TestDiagnosePanelFilter(t *testing.T) {
	_, verdict := runToFiles(t, "-scheme", "slr-scm", "-lock", "mcs")
	var d struct {
		Runs []struct {
			Scheme string `json:"scheme"`
			Lock   string `json:"lock"`
		}
	}
	if err := json.Unmarshal(verdict, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Runs) != 1 || d.Runs[0].Scheme != "slr-scm" || d.Runs[0].Lock != "mcs" {
		t.Fatalf("filtered runs = %+v, want exactly slr-scm/mcs", d.Runs)
	}
}

// TestDiagnosePromLints: -prom writes a linting Prometheus exposition that
// carries the panel's flight-recorder chain analytics.
func TestDiagnosePromLints(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "panel.prom")
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run([]string{"-quick", "-scheme", "hle", "-lock", "mcs", "-prom", promPath}, out); err != nil {
		t.Fatalf("diagnose run: %v", err)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(prom)); err != nil {
		t.Fatalf("-prom exposition does not lint: %v\n%s", err, prom)
	}
	for _, want := range []string{"flight_chains_total", "flight_cycles_total", "campaign_runs_total"} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("-prom exposition lacks %s:\n%s", want, prom)
		}
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := run([]string{"-quick", "-scheme", "hle", "-lock", "mcs", "-prom", "/dev/full"}, out); err == nil {
			t.Error("run(-prom /dev/full) succeeded, want the write error")
		}
	}
}

// TestAcceptsEveryFactoryName: every scheme and lock the factory builds is a
// valid -scheme or -lock restriction, except nolock, which needs one thread
// while the panel runs 8.
func TestAcceptsEveryFactoryName(t *testing.T) {
	var cases [][]string
	for _, s := range core.SchemeNames() {
		cases = append(cases, []string{"-scheme", s})
	}
	for _, l := range core.LockNames() {
		cases = append(cases, []string{"-lock", l})
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(append(c, "-quick", "-budget", "20000", "-j", "1"), &out)
		if c[1] == core.SchemeNameNoLock {
			if err == nil || !strings.Contains(err.Error(), "one thread") {
				t.Errorf("run(%v) = %v, want a one-thread error", c, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("run(%v) = %v", c, err)
		}
	}
}
