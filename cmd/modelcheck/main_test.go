package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elision/internal/modelcheck"
	"elision/internal/modelcheck/mutants"
	"elision/internal/obs"
)

func TestQuickGate(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "summary.json")
	var out bytes.Buffer
	if err := run([]string{"-quick", "-json", jsonPath}, &out); err != nil {
		t.Fatalf("quick gate failed: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum modelcheck.Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("summary JSON does not parse: %v", err)
	}
	if sum.SchemaVersion != modelcheck.SummarySchemaVersion {
		t.Fatalf("schema_version = %d, want %d", sum.SchemaVersion, modelcheck.SummarySchemaVersion)
	}
	if sum.TotalUnexpected != 0 {
		t.Fatalf("quick campaign found %d unexpected violations: %+v", sum.TotalUnexpected, sum.Failures)
	}
	if sum.Verdict != "ok" {
		t.Fatalf("quick campaign verdict %q, want ok", sum.Verdict)
	}
	// The quick grid includes lazysub, whose expected-fail contract must be
	// demonstrated even under the 2-seed budget.
	if len(sum.Expectations) != 1 || sum.Expectations[0].Scheme != "lazysub" || !sum.Expectations[0].Met {
		t.Fatalf("lazysub expectation not met under the quick gate: %+v", sum.Expectations)
	}
	if len(sum.Mutants) != len(mutants.All()) {
		t.Fatalf("quick gate ran %d mutants, registry has %d", len(sum.Mutants), len(mutants.All()))
	}
	for _, mr := range sum.Mutants {
		if !mr.Caught {
			t.Errorf("mutant %s escaped under the quick gate", mr.Name)
		}
	}
	// The quick campaign's JSON is pinned byte for byte: every run feeds the
	// oracles through the event stream, so a moved, dropped or reordered
	// event shows here even when the verdict holds. Re-pin only for a
	// deliberate change to the campaign or its oracles.
	sumHash := sha256.Sum256(raw)
	if got := hex.EncodeToString(sumHash[:])[:16]; got != quickCampaignDigest {
		t.Errorf("quick campaign JSON digest = %s, want %s", got, quickCampaignDigest)
	}
}

// quickCampaignDigest pins `modelcheck -quick -json`'s output.
const quickCampaignDigest = "58901ac8b2497026"

func TestFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-seeds", "0"},
		{"-schemes", "hle,no-such-scheme"},
		{"-locks", "ttas,no-such-lock"},
		{"stray-positional"},
		{"-repro", "not-a-repro"},
		{"-j", "-1"},
		{"-shards", "-4"},
		{"-workers", "-2"},
	} {
		err := run(args, &out)
		if err == nil || errors.Is(err, errFailed) {
			t.Errorf("run(%v) should have failed with a usage error, got %v", args, err)
		}
	}
}

// TestReproReplay: a mutant catch emitted by the campaign must replay to
// the same violation through -repro, exiting non-zero.
func TestReproReplay(t *testing.T) {
	res := modelcheck.RunMutant(mutants.All()[0], 1, false)
	if !res.Caught {
		t.Fatal("stale-slr not caught; cannot test replay")
	}
	var out bytes.Buffer
	err := run([]string{"-repro", res.Repro}, &out)
	if !errors.Is(err, errFailed) {
		t.Fatalf("replaying a failing repro returned %v, want errFailed\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), res.Oracle) {
		t.Fatalf("replay output does not name oracle %s:\n%s", res.Oracle, out.String())
	}

	// A clean case replays to PASS and exit 0.
	clean := modelcheck.GenCase("hle", "ttas", 3)
	out.Reset()
	if err := run([]string{"-repro", clean.Repro()}, &out); err != nil {
		t.Fatalf("clean replay failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("clean replay did not report PASS:\n%s", out.String())
	}
}

// TestCampaignSubsetDeterministic: the same invocation twice produces
// byte-identical JSON (the acceptance criterion for pinned-seed mode).
func TestCampaignSubsetDeterministic(t *testing.T) {
	args := []string{"-seeds", "3", "-schemes", "opt-slr,hle-scm", "-locks", "ttas,mcs", "-json", "-"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical invocations produced different JSON summaries")
	}
}

// TestCampaignJSONWorkerInvariance: -j 1 and -j 8 (with mismatched shard
// geometry) must emit byte-identical campaign JSON — the fleet's
// determinism contract at the CLI surface.
func TestCampaignJSONWorkerInvariance(t *testing.T) {
	base := []string{"-seeds", "3", "-schemes", "hle,opt-slr", "-locks", "ttas,mcs", "-json", "-"}
	var a, b bytes.Buffer
	if err := run(append([]string{"-j", "1"}, base...), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-j", "8", "-shards", "5"}, base...), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("-j 1 and -j 8 produced different JSON summaries")
	}
}

// TestLazySubCampaignWorkerInvariance: the expected-fail campaign — with
// shrinking on, so the JSON embeds every shrunk exhibit reproducer — must
// still be byte-identical at -j 1 and -j 4. Shrinking runs on the workers,
// which makes this the strongest determinism claim in the suite: not just
// the tallies but the minimized artifacts are worker-count-invariant.
func TestLazySubCampaignWorkerInvariance(t *testing.T) {
	base := []string{"-seeds", "4", "-schemes", "lazysub", "-shrink", "-json", "-"}
	var a, b bytes.Buffer
	if err := run(append([]string{"-j", "1"}, base...), &a); err != nil {
		t.Fatalf("lazysub campaign at -j 1: %v\n%s", err, a.String())
	}
	if err := run(append([]string{"-j", "4"}, base...), &b); err != nil {
		t.Fatalf("lazysub campaign at -j 4: %v\n%s", err, b.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("-j 1 and -j 4 produced different lazysub JSON summaries")
	}
	var sum modelcheck.Summary
	if err := json.Unmarshal(a.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Verdict != "ok" || sum.TotalExpected == 0 || sum.TotalUnexpected != 0 {
		t.Fatalf("lazysub campaign gate broken: verdict=%q expected=%d unexpected=%d",
			sum.Verdict, sum.TotalExpected, sum.TotalUnexpected)
	}
	for _, f := range sum.Failures {
		if f.ShrunkRepro == "" {
			t.Errorf("failure %s has no shrunk repro", f.Repro)
		}
	}
}

// TestExhibitReplayBreakAndFix replays the committed exhibits through the
// CLI exactly as CI's lazysub job does: without -hwfix each reproducer must
// FAIL with its recorded oracle (exit 1), and with -hwfix the identical
// string must PASS (exit 0).
func TestExhibitReplayBreakAndFix(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "modelcheck", "testdata", "lazysub_exhibits.txt"))
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		oracle, repro, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed exhibit line %q", line)
		}
		replayed++

		var out bytes.Buffer
		err := run([]string{"-repro", repro}, &out)
		if !errors.Is(err, errFailed) {
			t.Fatalf("%s: replay without fix returned %v, want errFailed\n%s", repro, err, out.String())
		}
		if !strings.Contains(out.String(), oracle) {
			t.Errorf("%s: output does not name oracle %s:\n%s", repro, oracle, out.String())
		}
		if !strings.Contains(out.String(), "expected for this scheme") {
			t.Errorf("%s: output does not mark the violation as expected:\n%s", repro, out.String())
		}

		out.Reset()
		if err := run([]string{"-repro", repro, "-hwfix"}, &out); err != nil {
			t.Fatalf("%s: replay with -hwfix returned %v, want PASS\n%s", repro, err, out.String())
		}
		if !strings.Contains(out.String(), "PASS") {
			t.Errorf("%s: -hwfix replay did not report PASS:\n%s", repro, out.String())
		}
	}
	if replayed == 0 {
		t.Fatal("no exhibits replayed")
	}
}

// TestPromWorkerInvariance: the -prom exposition derives from the summary
// alone (the fleet self-metrics section is host state and is appended in a
// separate registry only for human runs), so the modelcheck_* families are
// byte-identical at -j 1 and -j 8 and pass the linter.
func TestPromWorkerInvariance(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.prom"), filepath.Join(dir, "b.prom")
	base := []string{"-seeds", "2", "-schemes", "hle,opt-slr", "-locks", "ttas,mcs"}
	var out bytes.Buffer
	if err := run(append([]string{"-j", "1", "-prom", a}, base...), &out); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-j", "8", "-shards", "5", "-prom", b}, base...), &out); err != nil {
		t.Fatal(err)
	}
	rawA, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	// Compare only the deterministic modelcheck_* families: the fleet_*
	// lines record host scheduling and legitimately differ.
	section := func(raw []byte) string {
		var keep []string
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.Contains(line, "modelcheck_") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if section(rawA) != section(rawB) {
		t.Fatalf("-j 1 and -j 8 produced different modelcheck expositions:\n--- a ---\n%s--- b ---\n%s",
			section(rawA), section(rawB))
	}
	if err := obs.LintPrometheus(bytes.NewReader(rawA)); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, rawA)
	}
	for _, want := range []string{
		"modelcheck_cases_total", "modelcheck_violations_total 0",
		`modelcheck_ops_total{scheme="hle",lock="ttas"}`,
		"fleet_jobs_total",
	} {
		if !strings.Contains(string(rawA), want) {
			t.Errorf("exposition lacks %q:\n%s", want, rawA)
		}
	}
}
