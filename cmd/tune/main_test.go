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

// TestRejectsBadFlags: malformed search or workload flags exit non-zero with
// a usage message before any simulation starts (nothing reaches stdout).
func TestRejectsBadFlags(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	for name, args := range map[string][]string{
		"fixed scheme":      {"-scheme", "opt-slr"},
		"unknown scheme":    {"-scheme", "adaptive-slrr"},
		"unknown lock":      {"-lock", "mcss"},
		"unknown structure": {"-structure", "splay"},
		"bad mix":           {"-mix", "garbage"},
		"three-field mix":   {"-mix", "10,10,10"},
		"mix over 100%":     {"-mix", "90,90"},
		"negative mix":      {"-mix", "-5,10"},
		"non-numeric mix":   {"-mix", "a,b"},
		"zero threads":      {"-threads", "-3"},
		"negative size":     {"-size", "-1"},
		"zero seeds":        {"-seeds", "0"},
		"zero candidates":   {"-candidates", "0"},
		"eta one":           {"-eta", "1"},
		"zero budget":       {"-budget", "0"},
		"negative j":        {"-j", "-1"},
		"stray argument":    {"stray"},
	} {
		if err := run(args, out); err == nil {
			t.Errorf("%s: run(%v) accepted", name, args)
		}
	}
	fi, err := out.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Errorf("rejected runs wrote %d bytes to stdout", fi.Size())
	}
}

// TestSmokeJSONDeterministicAcrossWorkers is the CI gate run locally: the
// -smoke search must emit byte-identical elision-tune/v1 JSON at -j 1 and
// -j 4, and its tuned winner must beat fixed-MAX_RETRIES SLR.
func TestSmokeJSONDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	paths := [2]string{filepath.Join(dir, "j1.json"), filepath.Join(dir, "j4.json")}
	for i, j := range []string{"1", "4"} {
		if err := run([]string{"-smoke", "-j", j, "-json", paths[i]}, null); err != nil {
			t.Fatalf("run(-smoke -j %s) = %v", j, err)
		}
	}
	j1, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	j4, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatal("tuner JSON differs between -j 1 and -j 4")
	}
	var doc struct {
		Schema     string `json:"schema"`
		Hypothesis struct {
			TunedBeatsSLR bool `json:"tuned_beats_slr"`
		} `json:"hypothesis"`
		Winner struct {
			Config string `json:"config"`
		} `json:"winner"`
	}
	if err := json.Unmarshal(j1, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "elision-tune/v1" {
		t.Fatalf("schema %q", doc.Schema)
	}
	if !doc.Hypothesis.TunedBeatsSLR {
		t.Fatal("smoke search's tuned winner does not beat fixed-MAX_RETRIES SLR")
	}
	if !strings.Contains(doc.Winner.Config, "/") {
		t.Fatalf("winner config %q is not canonical", doc.Winner.Config)
	}
}

// TestSmokePromLints: -prom writes a linting Prometheus exposition covering
// the winner and every baseline, flight_* chain analytics included.
func TestSmokePromLints(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "tune.prom")
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if err := run([]string{"-smoke", "-prom", promPath}, null); err != nil {
		t.Fatalf("run(-smoke -prom) = %v", err)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(prom)); err != nil {
		t.Fatalf("-prom exposition does not lint: %v\n%s", err, prom)
	}
	for _, want := range []string{
		"flight_chains_total", "flight_cycles_total",
		`campaign_runs_total{scheme="adaptive-slr",lock="mcs"}`, // the winner
		`campaign_runs_total{scheme="opt-slr",lock="mcs"}`,      // a baseline
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("-prom exposition lacks %s", want)
		}
	}
}

// TestAcceptsEveryFactoryLock: every lock the factory builds can be tuned
// over (a one-candidate search on a small workload).
func TestAcceptsEveryFactoryLock(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, l := range core.LockNames() {
		args := []string{"-lock", l, "-candidates", "1", "-seeds", "1", "-budget", "4000",
			"-threads", "2", "-size", "16", "-j", "1"}
		if err := run(args, null); err != nil {
			t.Errorf("run(%v) = %v", args, err)
		}
	}
}
