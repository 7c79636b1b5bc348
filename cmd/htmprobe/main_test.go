package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestProbesDeterministicAcrossWorkers: the probe suite prints the same
// bytes in the same order at -j 1 and -j 4 — each probe is a deterministic
// simulation and output is merged by probe index, not completion.
func TestProbesDeterministicAcrossWorkers(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-j", "1"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-j", "4"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("-j 1 and -j 4 outputs differ:\n--- j1 ---\n%s--- j4 ---\n%s", a.String(), b.String())
	}
	// The four probes appear in their fixed order.
	out := a.String()
	last := -1
	for _, marker := range []string{"capacity:", "spurious:", "requestor wins:", "naive lock removal"} {
		i := strings.Index(out, marker)
		if i < 0 {
			t.Fatalf("output lacks %q:\n%s", marker, out)
		}
		if i < last {
			t.Fatalf("probe %q printed out of order:\n%s", marker, out)
		}
		last = i
	}
	// The §5 punchline: naive requestor-wins burns far more attempts per
	// commit than SLR's bounded retries + fallback.
	if !strings.Contains(out, "same workload under SLR") {
		t.Fatalf("output lacks the SLR comparison:\n%s", out)
	}
}

// TestFlagValidation: bad fleet flags and stray arguments are usage errors.
func TestFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"negative j":   {"-j", "-1"},
		"unknown flag": {"-no-such-flag"},
		"stray arg":    {"extra"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%s: run(%v) succeeded, want usage error", name, args)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-shards", "2"}, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Errorf("run(-shards 2) = %v, want unknown-flag error", err)
	}
}
