package modelcheck

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"elision/internal/fleet"
)

// TestReproRoundTrip pins the reproducer string format: every generated
// case must survive Repro -> ParseRepro unchanged, including the mutant
// field, so a violation report is always replayable.
func TestReproRoundTrip(t *testing.T) {
	for _, scheme := range RealSchemes() {
		for _, lock := range RealLocks() {
			for seed := uint64(0); seed < 8; seed++ {
				c := GenCase(scheme, lock, seed)
				got, err := ParseRepro(c.Repro())
				if err != nil {
					t.Fatalf("ParseRepro(%q): %v", c.Repro(), err)
				}
				if got != c {
					t.Fatalf("round trip changed the case:\n  in  %+v\n  out %+v", c, got)
				}
			}
		}
	}
	c := GenCase("opt-slr", "ttas", 7)
	c.Mutant = "stale-slr"
	got, err := ParseRepro(c.Repro())
	if err != nil {
		t.Fatalf("ParseRepro with mutant: %v", err)
	}
	if got != c {
		t.Fatalf("mutant round trip changed the case: %+v vs %+v", c, got)
	}
}

func TestParseReproErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"scheme=hle;lock=ttas",                 // missing prefix
		"mc1:scheme=hle;lock=ttas;bogus=1",     // unknown field
		"mc1:scheme=hle;lock=ttas;threads=abc", // bad number
		"mc1:scheme=hle;lock=ttas;threads",     // no '='
	} {
		if _, err := ParseRepro(bad); err == nil {
			t.Errorf("ParseRepro(%q) accepted a malformed reproducer", bad)
		}
	}
}

// TestGenCaseEnvelope checks generated cases stay inside the documented
// parameter envelope (and therefore inside the sim/memory budgets).
func TestGenCaseEnvelope(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		c := GenCase("hle-scm", "mcs", seed)
		if c.Threads < 2 || c.Threads > 8 {
			t.Fatalf("seed %d: threads %d out of envelope", seed, c.Threads)
		}
		if c.Ops < 20 || c.Ops > 60 {
			t.Fatalf("seed %d: ops %d out of envelope", seed, c.Ops)
		}
		if c.Keys != 4 && c.Keys != 16 && c.Keys != 64 && c.Keys != 256 {
			t.Fatalf("seed %d: keys %d out of envelope", seed, c.Keys)
		}
		if c.Objs < 1 || c.Objs > 2 {
			t.Fatalf("seed %d: objs %d out of envelope", seed, c.Objs)
		}
		if c.Objs == 1 && c.MovePct != 0 {
			t.Fatalf("seed %d: single object but move%%=%d", seed, c.MovePct)
		}
		if c.Cores != 0 && (c.Cores >= c.Threads || c.Cores < 1) {
			t.Fatalf("seed %d: cores %d vs threads %d", seed, c.Cores, c.Threads)
		}
	}
}

// TestRunDeterministic: the same case must produce the identical Result —
// the property every reproducer string relies on.
func TestRunDeterministic(t *testing.T) {
	c := GenCase("slr-scm", "ticket-hle", 42)
	a, b := Run(c), Run(c)
	if a.Stats != b.Stats || a.Deadlock != b.Deadlock || len(a.Violations) != len(b.Violations) {
		t.Fatalf("two runs of the same case diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestPinnedCampaignClean is the PR-gate teeth of the whole subsystem: a
// pinned-seed campaign over every real scheme x lock combination must come
// back with the "ok" verdict — zero unexpected violations, and the one
// expected-fail scheme (lazysub) demonstrating its documented unsafety on
// every lock. A failure here is a scheme bug, an oracle regression, or the
// adversary going quiet — all three block merging, and the logged
// reproducer replays the offending run deterministically.
func TestPinnedCampaignClean(t *testing.T) {
	sum := RunCampaign(CampaignConfig{SeedBase: 1, Seeds: 4, Fleet: fleet.Config{Workers: 8}})
	if want := len(RealSchemes()) * len(RealLocks()); len(sum.Combos) != want {
		t.Fatalf("campaign covered %d combos, factory surface has %d", len(sum.Combos), want)
	}
	if sum.TotalCases != len(sum.Combos)*4 {
		t.Fatalf("campaign ran %d cases, expected %d", sum.TotalCases, len(sum.Combos)*4)
	}
	for _, f := range sum.Failures {
		if !f.Expected {
			t.Errorf("oracle %s: %s [repro %s]", f.Oracle, f.Detail, f.Repro)
		}
	}
	if sum.TotalUnexpected != 0 {
		t.Fatalf("pinned campaign found %d unexpected violations", sum.TotalUnexpected)
	}
	if len(sum.Expectations) != 1 || sum.Expectations[0].Scheme != "lazysub" {
		t.Fatalf("expected exactly the lazysub expectation, got %+v", sum.Expectations)
	}
	if e := sum.Expectations[0]; !e.Met || e.Demonstrated == 0 {
		t.Fatalf("lazysub failed to demonstrate its documented unsafety: %+v", e)
	}
	// The adversary must fire on every lock in the pinned budget, not just
	// somewhere: the unsafe window is scheme-level, not lock-specific.
	for _, cb := range sum.Combos {
		if cb.Scheme == "lazysub" && cb.ExpectedViolations == 0 {
			t.Errorf("lazysub/%s: no expected violation in the pinned budget", cb.Lock)
		}
		if cb.Scheme != "lazysub" && cb.ExpectedViolations != 0 {
			t.Errorf("%s/%s: expected violations on a must-pass scheme", cb.Scheme, cb.Lock)
		}
	}
	if sum.Verdict != "ok" {
		t.Fatalf("verdict %q, want ok", sum.Verdict)
	}
	if sum.TotalViolations != sum.TotalExpected {
		t.Fatalf("violation partition broken: total %d, expected %d, unexpected %d",
			sum.TotalViolations, sum.TotalExpected, sum.TotalUnexpected)
	}
}

// TestPinnedCampaignHWFixClean: the same pinned grid with the hardware fix
// armed must be entirely clean — lazysub loses its expected-fail profile
// (the fix makes it safe) and the campaign degenerates to the strict
// zero-violation gate. This is the repair half of the break/fix pair.
func TestPinnedCampaignHWFixClean(t *testing.T) {
	sum := RunCampaign(CampaignConfig{SeedBase: 1, Seeds: 4, Fleet: fleet.Config{Workers: 8}, HWFix: true})
	for _, f := range sum.Failures {
		t.Errorf("oracle %s: %s [repro %s]", f.Oracle, f.Detail, f.Repro)
	}
	if sum.TotalViolations != 0 {
		t.Fatalf("hwfix campaign found %d violations", sum.TotalViolations)
	}
	if len(sum.Expectations) != 0 {
		t.Fatalf("hwfix campaign should carry no expected-fail contracts, got %+v", sum.Expectations)
	}
	if sum.Verdict != "ok" {
		t.Fatalf("verdict %q, want ok", sum.Verdict)
	}
	if !sum.HWFix {
		t.Fatal("summary does not echo the hwfix configuration")
	}
}

// TestCampaignJSONDeterministic: same seeds must marshal byte-identically
// regardless of worker count — the summary is a pure function of
// (config, code), never of scheduling on the host machine.
func TestCampaignJSONDeterministic(t *testing.T) {
	cfg := CampaignConfig{SeedBase: 99, Seeds: 2}
	cfg.Fleet.Workers = 1
	one, err := json.Marshal(RunCampaign(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet.Workers = 8
	eight, err := json.Marshal(RunCampaign(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, eight) {
		t.Fatalf("summary depends on worker count:\n  1: %s\n  8: %s", one, eight)
	}
}

// TestRunRejectsUnresolvedMutant: a repro naming a mutant must not silently
// run the real scheme (which would "pass" and hide the regression).
func TestRunRejectsUnresolvedMutant(t *testing.T) {
	c := GenCase("opt-slr", "ttas", 1)
	c.Mutant = "stale-slr"
	r := Run(c)
	if len(r.Violations) == 0 || r.Violations[0].Oracle != OracleConfig {
		t.Fatalf("expected a config violation for an unresolved mutant, got %+v", r.Violations)
	}
}

// TestRunRejectsUnknownNames: unknown scheme/lock names surface as config
// violations carrying the factory error, not as panics or empty passes.
func TestRunRejectsUnknownNames(t *testing.T) {
	c := GenCase("no-such-scheme", "ttas", 1)
	r := Run(c)
	if len(r.Violations) == 0 || r.Violations[0].Oracle != OracleConfig {
		t.Fatalf("expected config violation, got %+v", r.Violations)
	}
	if !strings.Contains(r.Violations[0].Detail, "no-such-scheme") {
		t.Fatalf("detail does not name the bad scheme: %s", r.Violations[0].Detail)
	}
}

// TestTimeBoxedCampaignMatchesPinned: a time-boxed campaign's round r runs
// seed r of every combo, so after R rounds it has run exactly the cases of a
// pinned-seed campaign with Seeds = R. Every combo's tallies must match, and
// the failures must be the same, listed round by round.
func TestTimeBoxedCampaignMatchesPinned(t *testing.T) {
	base := CampaignConfig{Schemes: []string{"lazysub"}, SeedBase: 7, Fleet: fleet.Config{Workers: 4}}
	boxed := base
	boxed.Deadline = time.Now().Add(300 * time.Millisecond)
	got := RunCampaign(boxed)
	rounds := got.TotalCases / len(got.Combos)
	if rounds < 1 || got.TotalCases != rounds*len(got.Combos) {
		t.Fatalf("time-boxed campaign ran %d cases over %d combos: not whole rounds", got.TotalCases, len(got.Combos))
	}
	pinned := base
	pinned.Seeds = rounds
	want := RunCampaign(pinned)
	t.Logf("%d rounds, %d failures", rounds, len(want.Failures))
	if !reflect.DeepEqual(got.Combos, want.Combos) {
		t.Fatalf("combo tallies after %d rounds differ from a %d-seed campaign:\n got %+v\nwant %+v", rounds, rounds, got.Combos, want.Combos)
	}
	// The pinned campaign lists failures combo by combo; reorder them round
	// by round, combo by combo within a round.
	byRepro := map[string]Failure{}
	for _, f := range want.Failures {
		byRepro[f.Repro] = f
	}
	roundOrder := []Failure{}
	for r := 0; r < rounds; r++ {
		for combo, lock := range RealLocks() {
			if f, ok := byRepro[GenCase("lazysub", lock, comboSeed(base.SeedBase, combo, r)).withDefaults().Repro()]; ok {
				roundOrder = append(roundOrder, f)
			}
		}
	}
	if len(roundOrder) != len(want.Failures) {
		t.Fatalf("placed %d of the pinned campaign's %d failures in rounds", len(roundOrder), len(want.Failures))
	}
	if !reflect.DeepEqual(got.Failures, roundOrder) {
		t.Fatalf("time-boxed failures are not the pinned ones round by round:\n got %+v\nwant %+v", got.Failures, roundOrder)
	}
}
