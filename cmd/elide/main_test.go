package main

import (
	"strings"
	"testing"

	"elision/internal/core"
)

// TestRejectsBadFleetFlags: elide accepts -j/-shards for cmd-tool
// uniformity and validates them like every other tool.
func TestRejectsBadFleetFlags(t *testing.T) {
	if err := run([]string{"-j", "-1"}); err == nil || !strings.Contains(err.Error(), "-j") {
		t.Fatalf("run(-j -1) = %v, want -j complaint", err)
	}
	if err := run([]string{"-shards", "-2"}); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("run(-shards -2) = %v, want -shards complaint", err)
	}
	if err := run([]string{"-structure", "splay"}); err == nil {
		t.Fatal("run accepted an unknown structure")
	}
	if err := run([]string{"stray"}); err == nil {
		t.Fatal("run accepted a stray positional argument")
	}
}

// TestRejectsBadNames: typos in -scheme/-lock must be flag errors naming the
// accepted set, not harness panics mid-run.
func TestRejectsBadNames(t *testing.T) {
	err := run([]string{"-scheme", "hle-scmm"})
	if err == nil || !strings.Contains(err.Error(), "unknown -scheme") {
		t.Fatalf("run(-scheme hle-scmm) = %v, want unknown-scheme error", err)
	}
	if !strings.Contains(err.Error(), "adaptive-slr") {
		t.Fatalf("scheme error %v does not list the accepted names", err)
	}
	if err := run([]string{"-lock", "mcss"}); err == nil || !strings.Contains(err.Error(), "unknown -lock") {
		t.Fatalf("run(-lock mcss) = %v, want unknown-lock error", err)
	}
	if err := run([]string{"-threads", "0"}); err == nil || !strings.Contains(err.Error(), "-threads") {
		t.Fatalf("run(-threads 0) = %v, want -threads complaint", err)
	}
	if err := run([]string{"-quantum", "0"}); err == nil || !strings.Contains(err.Error(), "-quantum") {
		t.Fatalf("run(-quantum 0) = %v, want -quantum complaint", err)
	}
}

// TestRejectsBadAdaptiveConfig: -adaptive is validated at the flag layer —
// wrong scheme, negative budgets and zero-length forfeit windows all exit
// non-zero before any simulation starts.
func TestRejectsBadAdaptiveConfig(t *testing.T) {
	if err := run([]string{"-adaptive", "5/2,16/5,0/8,3/3"}); err == nil ||
		!strings.Contains(err.Error(), "requires -scheme") {
		t.Fatal("run accepted -adaptive on a non-adaptive scheme")
	}
	for _, bad := range []string{
		"-1/2,16/5,0/8,3/3", // negative retry budget
		"5/0,16/5,0/8,3/3",  // zero-length forfeit window
		"5/2,16/5,0/8",      // missing class
		"garbage",
	} {
		if err := run([]string{"-scheme", "adaptive-slr", "-adaptive", bad}); err == nil ||
			!strings.Contains(err.Error(), "bad -adaptive") {
			t.Fatalf("run(-adaptive %q) = %v, want bad-adaptive error", bad, err)
		}
	}
}

// TestAdaptiveRunsEndToEnd: a tiny adaptive point completes and the flag
// plumbing reaches the scheme (smoke, kept fast via a small budget).
func TestAdaptiveRunsEndToEnd(t *testing.T) {
	args := []string{"-scheme", "adaptive-slr", "-lock", "mcs",
		"-size", "64", "-budget", "100000", "-adaptive", "2/2,4/2,0/4,2/2"}
	if err := run(args); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
}

// TestAcceptsEveryFactoryName: every scheme and lock the factory builds runs
// end to end, so the tool's roster cannot drift from the factory's.
func TestAcceptsEveryFactoryName(t *testing.T) {
	small := []string{"-threads", "1", "-size", "16", "-budget", "20000"}
	var cases [][]string
	for _, s := range core.SchemeNames() {
		cases = append(cases, []string{"-scheme", s})
	}
	for _, l := range core.LockNames() {
		cases = append(cases, []string{"-lock", l})
	}
	for _, c := range cases {
		if err := run(append(c, small...)); err != nil {
			t.Errorf("run(%v) = %v", c, err)
		}
	}
}
