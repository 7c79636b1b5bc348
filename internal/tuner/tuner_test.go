package tuner

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/harness"
)

// TestCandidatesDeterministic: the population is a pure function of
// (n, spaceSeed), deduplicated, valid, and prefix-stable (a smaller ask
// returns a prefix of a larger one, so shrinking -candidates never changes
// which configs the survivors were drawn from).
func TestCandidatesDeterministic(t *testing.T) {
	a := Candidates(24, 0)
	b := Candidates(24, 0)
	if len(a) != 24 {
		t.Fatalf("got %d candidates, want 24", len(a))
	}
	seen := make(map[string]bool)
	for i, c := range a {
		if c != b[i] {
			t.Fatalf("candidate %d differs across calls: %v vs %v", i, c, b[i])
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("candidate %d invalid: %v", i, err)
		}
		if s := c.String(); seen[s] {
			t.Fatalf("candidate %d duplicates %s", i, s)
		} else {
			seen[s] = true
		}
	}
	if a[0] != core.DefaultAdaptiveConfig() {
		t.Fatalf("candidate 0 is %v, want the default config", a[0])
	}
	for i, c := range Candidates(8, 0) {
		if c != a[i] {
			t.Fatalf("Candidates(8) is not a prefix of Candidates(24) at %d", i)
		}
	}
	other := Candidates(24, 99)
	diff := false
	for i := range a {
		if a[i] != other[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("space seed has no effect on the population")
	}
}

func TestConfigValidate(t *testing.T) {
	good := SmokeConfig(fleet.Config{})
	if err := good.Validate(); err != nil {
		t.Fatalf("smoke config invalid: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"non-adaptive scheme": func(c *Config) { c.Scheme = harness.SchemeOptSLR },
		"negative candidates": func(c *Config) { c.Candidates = -1 },
		"eta one":             func(c *Config) { c.Eta = 1 },
		"negative seeds":      func(c *Config) { c.Seeds = -2 },
	} {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// run executes the smoke search at the given worker count.
func run(t *testing.T, j int) Result {
	t.Helper()
	fc, err := fleet.Flags(j)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(SmokeConfig(fc))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSmokeShape pins the structural invariants of a smoke Result: schema,
// rung geometry (population halves to the frontier width, budgets escalate
// to the final budget), a best-first frontier, and survivor marks matching
// the next rung's population.
func TestSmokeShape(t *testing.T) {
	res := run(t, 2)
	if res.Schema != Schema {
		t.Fatalf("schema %q, want %q", res.Schema, Schema)
	}
	if len(res.Rungs) == 0 {
		t.Fatal("no rungs")
	}
	last := res.Rungs[len(res.Rungs)-1]
	if last.BudgetCycles != res.FinalBudget {
		t.Fatalf("last rung budget %d, want final %d", last.BudgetCycles, res.FinalBudget)
	}
	if len(res.Rungs[0].Candidates) != 16 {
		t.Fatalf("rung 0 has %d candidates, want the full population", len(res.Rungs[0].Candidates))
	}
	for i, r := range res.Rungs {
		if r.Rung != i {
			t.Fatalf("rung %d labeled %d", i, r.Rung)
		}
		survivors := 0
		for _, c := range r.Candidates {
			if c.Survived {
				survivors++
			}
		}
		if i < len(res.Rungs)-1 {
			if survivors != len(res.Rungs[i+1].Candidates) {
				t.Fatalf("rung %d marks %d survivors, rung %d has %d candidates",
					i, survivors, i+1, len(res.Rungs[i+1].Candidates))
			}
			if r.BudgetCycles > res.Rungs[i+1].BudgetCycles {
				t.Fatalf("rung budgets decrease: %d then %d", r.BudgetCycles, res.Rungs[i+1].BudgetCycles)
			}
		}
	}
	if len(res.Frontier) != len(last.Candidates) {
		t.Fatalf("frontier has %d entries, last rung %d", len(res.Frontier), len(last.Candidates))
	}
	for i := 1; i < len(res.Frontier); i++ {
		if res.Frontier[i].OpsPerMcycle > res.Frontier[i-1].OpsPerMcycle {
			t.Fatal("frontier is not sorted best-first")
		}
	}
	if res.Winner != res.Frontier[0] {
		t.Fatal("winner is not the frontier's first entry")
	}
	if len(res.Baselines) != len(baselineSchemes) {
		t.Fatalf("%d baselines, want %d", len(res.Baselines), len(baselineSchemes))
	}
}

// TestSmokeDeterministicAcrossWorkers is the tuner's core contract: the
// marshaled Result is byte-identical at -j 1 and -j 4.
func TestSmokeDeterministicAcrossWorkers(t *testing.T) {
	j1, err := json.Marshal(run(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	j4, err := json.Marshal(run(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatal("tuner JSON differs between -j 1 and -j 4")
	}
}

// TestSmokeTunedBeatsFixedSLR asserts the ROADMAP hypothesis on the pinned
// smoke search: the tuned adaptive config outperforms fixed-MAX_RETRIES SLR
// on the lemming workload. Everything is deterministic, so this is a stable
// regression gate, not a statistical claim.
func TestSmokeTunedBeatsFixedSLR(t *testing.T) {
	res := run(t, 2)
	if !res.Hypothesis.TunedBeatsSLR {
		t.Fatalf("tuned winner %s (%.1f ops/Mcycle) does not beat opt-slr (%.1f)",
			res.Winner.Config, res.Winner.OpsPerMcycle, res.Hypothesis.SLROpsPerMcycle)
	}
	if res.Winner.OpsPerMcycle != res.Hypothesis.TunedOpsPerMcycle {
		t.Fatal("hypothesis tuned throughput is not the winner's")
	}
	var slr float64
	for _, b := range res.Baselines {
		if b.Scheme == string(harness.SchemeOptSLR) {
			slr = b.OpsPerMcycle
		}
	}
	if slr != res.Hypothesis.SLROpsPerMcycle {
		t.Fatal("hypothesis slr throughput is not the opt-slr baseline's")
	}
}

// TestFrontierTable: one row per frontier entry plus one per baseline, and
// the winner's config appears in the rendered output.
func TestFrontierTable(t *testing.T) {
	res := run(t, 2)
	tb := res.FrontierTable()
	if want := len(res.Frontier) + len(res.Baselines); len(tb.Rows) != want {
		t.Fatalf("table has %d rows, want %d", len(tb.Rows), want)
	}
	var buf strings.Builder
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, res.Winner.Config) || !strings.Contains(out, "opt-slr") {
		t.Fatalf("rendered table missing winner or baseline:\n%s", out)
	}
}
