package modelcheck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elision/internal/fleet"
)

// exhibitsPath is the committed record of lazysub's unsafety: one shrunk
// reproducer per lock, found by the pinned lazysub-only campaign. The file
// is a replayable artifact (cmd/modelcheck -repro replays any line's
// reproducer; adding -hwfix shows the repair) and a golden: the campaign
// must keep regenerating it byte-for-byte.
const exhibitsPath = "testdata/lazysub_exhibits.txt"

// exhibitCampaign is the pinned configuration the exhibits are defined by —
// the same one CI's lazysub job runs.
func exhibitCampaign() CampaignConfig {
	return CampaignConfig{Schemes: []string{"lazysub"}, SeedBase: 1, Seeds: 4, Shrink: true, Fleet: fleet.Config{Workers: 8}}
}

// renderExhibits runs the pinned lazysub campaign and renders the first
// shrunk failure of each combo as "oracle\trepro" lines. Failures merge in
// global case order, so "first per combo" is deterministic at any worker
// count.
func renderExhibits(t *testing.T) []byte {
	t.Helper()
	sum := RunCampaign(exhibitCampaign())
	if sum.TotalUnexpected != 0 {
		t.Fatalf("lazysub campaign found %d unexpected violations", sum.TotalUnexpected)
	}
	var b bytes.Buffer
	b.WriteString("# Shrunk lazy-subscription exhibits: minimal deterministic reproducers of\n")
	b.WriteString("# the unsafe commit that cmd/modelcheck -repro replays verbatim (add\n")
	b.WriteString("# -hwfix to watch the hardware fix repair the same case). Regenerated and\n")
	b.WriteString("# byte-compared by TestLazySubExhibitsGolden; do not edit by hand.\n")
	seen := map[string]bool{}
	for _, f := range sum.Failures {
		c, err := ParseRepro(f.ShrunkRepro)
		if err != nil {
			t.Fatalf("campaign emitted unparseable shrunk repro %q: %v", f.ShrunkRepro, err)
		}
		if seen[c.Lock] {
			continue
		}
		seen[c.Lock] = true
		fmt.Fprintf(&b, "%s\t%s\n", f.Oracle, f.ShrunkRepro)
	}
	if len(seen) != len(RealLocks()) {
		t.Fatalf("exhibits cover %d locks, want %d: the adversary went quiet on some lock", len(seen), len(RealLocks()))
	}
	return b.Bytes()
}

// parseExhibits reads the committed file into (oracle, case) pairs.
func parseExhibits(t *testing.T) []struct {
	Oracle string
	Case   Case
} {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(exhibitsPath))
	if err != nil {
		t.Fatalf("reading exhibits (regenerate with MC_UPDATE_EXHIBITS=1 go test ./internal/modelcheck): %v", err)
	}
	var out []struct {
		Oracle string
		Case   Case
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		oracle, repro, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed exhibit line %q", line)
		}
		c, err := ParseRepro(repro)
		if err != nil {
			t.Fatalf("exhibit %q does not parse: %v", repro, err)
		}
		out = append(out, struct {
			Oracle string
			Case   Case
		}{oracle, c})
	}
	if len(out) == 0 {
		t.Fatal("no exhibits in file")
	}
	return out
}

// TestLazySubExhibitsGolden pins the exhibit file to the campaign that
// defines it: regenerating must reproduce the committed bytes exactly. Any
// drift — in the scheme, the simulator, the shrinker or the seed streams —
// shows up as a diff here, which is the point: the exhibits are evidence,
// and evidence must not rot silently. Set MC_UPDATE_EXHIBITS=1 to rewrite
// the file after a deliberate change.
func TestLazySubExhibitsGolden(t *testing.T) {
	got := renderExhibits(t)
	if os.Getenv("MC_UPDATE_EXHIBITS") != "" {
		if err := os.WriteFile(filepath.FromSlash(exhibitsPath), got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", exhibitsPath)
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(exhibitsPath))
	if err != nil {
		t.Fatalf("reading exhibits (regenerate with MC_UPDATE_EXHIBITS=1 go test ./internal/modelcheck): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exhibits drifted from the pinned campaign\n--- committed ---\n%s--- regenerated ---\n%s", want, got)
	}
}

// TestLazySubExhibitsBreakAndFix is the tentpole's contract in one test:
// every committed exhibit replays to its recorded violation without the
// hardware fix, and the identical case with HWFix set completes with zero
// violations — the section runs under the lock instead of committing into
// it.
func TestLazySubExhibitsBreakAndFix(t *testing.T) {
	for _, e := range parseExhibits(t) {
		r := Run(e.Case)
		if len(r.Violations) == 0 {
			t.Errorf("%s: exhibit no longer violates", e.Case.Repro())
			continue
		}
		if got := r.Violations[0].Oracle; got != e.Oracle {
			t.Errorf("%s: first violation is %s, recorded %s", e.Case.Repro(), got, e.Oracle)
		}
		if r.Unexpected() != 0 {
			t.Errorf("%s: exhibit produced %d violations outside lazysub's expected-fail set",
				e.Case.Repro(), r.Unexpected())
		}

		fixed := e.Case
		fixed.HWFix = true
		fr := Run(fixed)
		if len(fr.Violations) != 0 {
			t.Errorf("%s: %d violations with the hardware fix, first %s: %s",
				fixed.Repro(), len(fr.Violations), fr.Violations[0].Oracle, fr.Violations[0].Detail)
		}
		if fr.Deadlock {
			t.Errorf("%s: deadlock with the hardware fix", fixed.Repro())
		}
		// The fix does not make lazysub speculative — it makes it honest:
		// dangerous attempts abort and the work lands on the fallback lock.
		if fr.Stats.NonSpec == 0 {
			t.Errorf("%s: fix produced no fallback executions; expected the lock path to carry the load", fixed.Repro())
		}
	}
}

// TestLazySubExhibitsFullyShrunk: each committed exhibit is a fixpoint of
// the expectation-aware shrinker — shrinking it again changes nothing, so
// the artifact really is minimal under the shrinker's moves, not a
// half-reduced snapshot.
func TestLazySubExhibitsFullyShrunk(t *testing.T) {
	for _, e := range parseExhibits(t) {
		again := ShrinkWhere(e.Case, nil, func(r Result) bool { return r.Expected() > 0 })
		if again != e.Case.withDefaults() {
			t.Errorf("exhibit not minimal:\n  committed %s\n  reshrunk  %s", e.Case.Repro(), again.Repro())
		}
	}
}

// TestLazySubExhibitsViolationFingerprint: replaying an exhibit twice must
// produce the identical violation list (oracle and detail, which embeds
// sim timestamps) — the determinism the committed artifacts stand on.
func TestLazySubExhibitsViolationFingerprint(t *testing.T) {
	for _, e := range parseExhibits(t) {
		a, b := Run(e.Case), Run(e.Case)
		if len(a.Violations) != len(b.Violations) {
			t.Fatalf("%s: violation count diverged between replays", e.Case.Repro())
		}
		for i := range a.Violations {
			if a.Violations[i] != b.Violations[i] {
				t.Fatalf("%s: violation %d diverged:\n  %+v\n  %+v",
					e.Case.Repro(), i, a.Violations[i], b.Violations[i])
			}
		}
	}
}
