package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elision/internal/core"
)

// TestRejectsBadFleetFlags: a single point always runs on one worker, so
// elide has no fleet flags and -j/-shards are unknown-flag errors.
func TestRejectsBadFleetFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-j", "4"},
		{"-shards", "2"},
		{"-structure", "splay"},
		{"stray"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRejectsMalformedInput: every malformed point is an error before the
// simulation starts (nothing reaches stdout), and the edge values that do
// describe a point still run.
func TestRejectsMalformedInput(t *testing.T) {
	small := []string{"-threads", "2", "-budget", "20000"}
	for _, tc := range []struct {
		args []string
		want string // error substring; "" = the point runs
	}{
		{[]string{"-size", "-1"}, "-size"},
		{[]string{"-mix", "90,90"}, "-mix"},
		{[]string{"-mix", "-5,10"}, "-mix"},
		{[]string{"-mix", "10,10,10"}, "-mix"},
		{[]string{"-mix", "10"}, "-mix"},
		{[]string{"-mix", "ten,10"}, "-mix"},
		{[]string{"-budget", "0"}, "-budget"},
		{[]string{"-threads", "0"}, "-threads"},
		{[]string{"-threads", "65"}, "-threads"},
		{[]string{"-threads", "64"}, ""},
		{[]string{"-hot-lines", "-3"}, "-hot-lines"},
		{[]string{"-scheme", "nolock"}, "-threads 1"},
		{[]string{"-scheme", "nolock", "-lock", "mcs", "-threads", "8"}, "-threads 1"},
		{[]string{"-scheme", "nolock", "-threads", "1"}, ""},
		{[]string{"-size", "0"}, ""},
		{[]string{"-mix", "0,0"}, ""},
		{[]string{"-mix", "0,100"}, ""},
	} {
		var out bytes.Buffer
		err := run(append(append([]string{}, small...), tc.args...), &out)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("run(%v) = %v, want a run", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("run(%v) = %v, want a %s complaint", tc.args, err, tc.want)
		case tc.want != "" && out.Len() > 0:
			t.Errorf("run(%v) printed %q before failing", tc.args, out.String())
		}
	}
}

// TestLemmingRigDigests pins the metrics report of the §4 lemming point
// (plain HLE over MCS, size 64, TestScale's 300K-cycle budget) with the
// causality engine and an 8-line hot table, in text and CSV, byte for byte.
// Its trace JSON is pinned as hle/mcs/perfetto by internal/harness's
// TestGoldenObserverDigests.
func TestLemmingRigDigests(t *testing.T) {
	dir := t.TempDir()
	for file, want := range map[string]string{
		"m.txt": "d73f9d373f5726f9",
		"m.csv": "5edc8f5c80869c89",
	} {
		path := filepath.Join(dir, file)
		args := []string{"-scheme", "hle", "-lock", "mcs", "-size", "64", "-budget", "300000",
			"-causality", "-hot-lines", "8", "-metrics", path}
		if err := run(args, io.Discard); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:])[:16]; got != want {
			t.Errorf("%s digest = %s, want %s", file, got, want)
		}
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		args := []string{"-threads", "2", "-budget", "20000", "-metrics", "/dev/full"}
		if err := run(args, io.Discard); err == nil {
			t.Error("run(-metrics /dev/full) succeeded, want the write error")
		}
	}
}

// TestRejectsBadNames: typos in -scheme/-lock must be flag errors naming the
// accepted set, not harness panics mid-run.
func TestRejectsBadNames(t *testing.T) {
	err := run([]string{"-scheme", "hle-scmm"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown -scheme") {
		t.Fatalf("run(-scheme hle-scmm) = %v, want unknown-scheme error", err)
	}
	if !strings.Contains(err.Error(), "adaptive-slr") {
		t.Fatalf("scheme error %v does not list the accepted names", err)
	}
	if err := run([]string{"-lock", "mcss"}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown -lock") {
		t.Fatalf("run(-lock mcss) = %v, want unknown-lock error", err)
	}
	if err := run([]string{"-threads", "0"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-threads") {
		t.Fatalf("run(-threads 0) = %v, want -threads complaint", err)
	}
	if err := run([]string{"-quantum", "0"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-quantum") {
		t.Fatalf("run(-quantum 0) = %v, want -quantum complaint", err)
	}
}

// TestRejectsBadAdaptiveConfig: -adaptive is validated at the flag layer —
// wrong scheme, negative budgets and zero-length forfeit windows all exit
// non-zero before any simulation starts.
func TestRejectsBadAdaptiveConfig(t *testing.T) {
	if err := run([]string{"-adaptive", "5/2,16/5,0/8,3/3"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "requires -scheme") {
		t.Fatal("run accepted -adaptive on a non-adaptive scheme")
	}
	for _, bad := range []string{
		"-1/2,16/5,0/8,3/3", // negative retry budget
		"5/0,16/5,0/8,3/3",  // zero-length forfeit window
		"5/2,16/5,0/8",      // missing class
		"garbage",
	} {
		if err := run([]string{"-scheme", "adaptive-slr", "-adaptive", bad}, io.Discard); err == nil ||
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
	if err := run(args, io.Discard); err != nil {
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
		if err := run(append(c, small...), io.Discard); err != nil {
			t.Errorf("run(%v) = %v", c, err)
		}
	}
}
