package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elision/internal/core"
	"elision/internal/obs"
)

// TestRejectsBadFlags: malformed specs and knobs exit non-zero before any
// simulation starts.
func TestRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown scheme a":        {"-a", "hlee"},
		"unknown scheme b":        {"-b", "opt-slrr"},
		"acfg on fixed":           {"-b", "opt-slr:0/2,0/1,5/5,12/8"},
		"bad acfg":                {"-a", "adaptive-slr:garbage"},
		"zero seeds":              {"-seeds", "0"},
		"zero budget":             {"-budget", "0"},
		"negative j":              {"-j", "-1"},
		"nolock a":                {"-a", "nolock"},
		"nolock b":                {"-b", "nolock"},
		"bad side":                {"-chain", "t0#0", "-side", "c"},
		"stray argument":          {"stray"},
		"bad side, no -chain":     {"-side", "c"},
		"side b without -chain":   {"-side", "b"},
		"perfetto without -chain": {"-perfetto", "chain.json"},
	} {
		err := run(args, io.Discard)
		if err == nil {
			t.Errorf("%s: run(%v) accepted", name, args)
		} else if strings.HasSuffix(name, "without -chain") && !strings.Contains(err.Error(), "add -chain") {
			t.Errorf("%s: run(%v) = %v, want it to ask for -chain", name, args, err)
		}
	}
	// -chain prints one chronicle, so the comparison's flags would be
	// silently ignored; set explicitly, each is refused by name.
	for _, flagArgs := range [][]string{
		{"-json", filepath.Join(t.TempDir(), "doc.json")},
		{"-json", "-"},
		{"-seeds", "2"},
		{"-j", "1"},
	} {
		args := append([]string{"-chain", "t0#0"}, flagArgs...)
		err := run(args, io.Discard)
		if err == nil {
			t.Errorf("run(%v) accepted", args)
		} else if !strings.Contains(err.Error(), "drop "+flagArgs[0]) {
			t.Errorf("run(%v) = %v, want it to name %s", args, err, flagArgs[0])
		}
	}
	if err := run([]string{"-shards", "2"}, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Errorf("run(-shards 2) = %v, want unknown-flag error", err)
	}
}

// explainDoc is the subset of the elision-explain/v1 document the gates
// assert on.
type explainDoc struct {
	Schema string `json:"schema"`
	A      struct {
		OpsPerMcycle float64            `json:"ops_per_mcycle"`
		Chains       uint64             `json:"chains"`
		Buckets      map[string]float64 `json:"buckets_cycles_per_op"`
	} `json:"a"`
	B struct {
		OpsPerMcycle float64 `json:"ops_per_mcycle"`
	} `json:"b"`
	GapCyclesPerOp    float64 `json:"gap_cycles_per_op"`
	ExplainedFraction float64 `json:"explained_fraction"`
}

// TestExplainGoldenAndDeterministic is the tool's acceptance gate: on the
// pinned lemming workload the default comparison (tuned adaptive-slr vs
// opt-slr) must be byte-identical at -j 1 and -j 4, match the committed
// golden document, show the tuned side ahead, and attribute at least the
// full cycles-per-op gap to named flight buckets.
func TestExplainGoldenAndDeterministic(t *testing.T) {
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "j1.json"), filepath.Join(dir, "j4.json")}
	for i, j := range []string{"1", "4"} {
		var table bytes.Buffer
		if err := run([]string{"-j", j, "-json", paths[i]}, &table); err != nil {
			t.Fatalf("run(-j %s) = %v", j, err)
		}
		for _, want := range []string{"gap:", "explained:", "cycles-to-commit", "bucket"} {
			if !strings.Contains(table.String(), want) {
				t.Errorf("-j %s table lacks %q:\n%s", j, want, table.String())
			}
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
		t.Fatal("explain JSON differs between -j 1 and -j 4")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "explain_lemming.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, golden) {
		t.Fatalf("explain JSON deviates from testdata/explain_lemming.json;\n"+
			"regenerate with: go run ./cmd/explain -json cmd/explain/testdata/explain_lemming.json\n--- got ---\n%s", j1)
	}

	var doc explainDoc
	if err := json.Unmarshal(j1, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != SchemaVersion {
		t.Fatalf("schema %q, want %q", doc.Schema, SchemaVersion)
	}
	if doc.A.OpsPerMcycle <= doc.B.OpsPerMcycle {
		t.Fatalf("tuned side not ahead: A %.2f vs B %.2f ops/Mcycle", doc.A.OpsPerMcycle, doc.B.OpsPerMcycle)
	}
	if doc.GapCyclesPerOp <= 0 {
		t.Fatalf("gap %.2f cycles/op, want > 0", doc.GapCyclesPerOp)
	}
	if doc.ExplainedFraction < 1.0 {
		t.Fatalf("explained fraction %.3f < 1.0: named buckets do not cover the gap", doc.ExplainedFraction)
	}
	if doc.A.Chains == 0 || len(doc.A.Buckets) == 0 {
		t.Fatal("side A carries no flight analytics")
	}
}

// TestChainChronicleAndPerfetto: -chain prints the named chain's history and
// -perfetto writes a balanced Perfetto slice stack for it.
func TestChainChronicleAndPerfetto(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "chain.json")
	var out bytes.Buffer
	if err := run([]string{"-chain", "t0#0", "-perfetto", trace}, &out); err != nil {
		t.Fatalf("run(-chain t0#0) = %v", err)
	}
	for _, want := range []string{"chain t0#0:", "thread 0", "accounting:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("chronicle lacks %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.TraceEvent
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatalf("perfetto export is not trace-event JSON: %v", err)
	}
	depth := 0
	for _, ev := range evs {
		switch ev.Ph {
		case "B":
			depth++
		case "E":
			depth--
		}
		if depth < 0 {
			t.Fatal("unbalanced E in perfetto export")
		}
	}
	if depth != 0 {
		t.Fatalf("perfetto export leaves %d open slice(s)", depth)
	}

	if err := run([]string{"-chain", "t999#999"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing chain error = %v, want not-found", err)
	}
}

// TestAcceptsEveryFactoryName: every scheme the factory builds is a valid
// side spec, except nolock, which needs one thread while the lemming
// workload runs 8.
func TestAcceptsEveryFactoryName(t *testing.T) {
	for _, s := range core.SchemeNames() {
		got, _, err := parseSpec(s)
		if s == core.SchemeNameNoLock {
			if err == nil || !strings.Contains(err.Error(), "one thread") {
				t.Errorf("parseSpec(%q) = %q, %v, want a one-thread error", s, got, err)
			}
			continue
		}
		if err != nil || string(got) != s {
			t.Errorf("parseSpec(%q) = %q, %v", s, got, err)
		}
	}
}
