package modelcheck

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"elision/internal/fleet"
)

// CampaignConfig parameterizes a fuzzing campaign over scheme×lock
// combinations.
type CampaignConfig struct {
	// Schemes and Locks select the grid (nil selects all real ones).
	Schemes []string
	Locks   []string
	// SeedBase is the first seed; case i of a combo uses SeedBase+i mixed
	// with the combo's index so distinct combos explore distinct workloads.
	SeedBase uint64
	// Seeds is the number of cases per combo (pinned-seed mode).
	Seeds int
	// Deadline, when non-zero, switches to time-boxed mode: whole rounds of
	// one seed per combo run until the deadline passes (the JSON stays
	// deterministic per case; only the number of rounds is time-dependent).
	Deadline time.Time
	// Shrink failing cases before reporting.
	Shrink bool
	// HWFix arms htm's AbortOnDangerousWhileUnsubscribed on every generated
	// case (Case.HWFix): the campaign that demonstrates the lazy-
	// subscription fix. Under it lazysub carries the ordinary must-pass
	// profile — zero violations expected, none tolerated.
	HWFix bool
	// Fleet runs the cases: its workers (0 = one per host CPU), a Progress
	// callback (time-boxed rounds report per round) and a Profile that
	// accumulates across rounds.
	Fleet fleet.Config
}

// ComboSummary aggregates one scheme×lock cell of the campaign grid.
type ComboSummary struct {
	Scheme     string `json:"scheme"`
	Lock       string `json:"lock"`
	Cases      int    `json:"cases"`
	Violations int    `json:"violations"`
	// ExpectedViolations counts the subset of Violations covered by the
	// scheme's expected-fail profile (lazysub's documented unsafety
	// demonstrating itself). Zero — and omitted — for every safe scheme.
	ExpectedViolations int    `json:"expected_violations,omitempty"`
	Ops                uint64 `json:"ops"`
	SpecOps            uint64 `json:"spec_ops"`
	Fallbacks          uint64 `json:"fallbacks"`
	Aborts             uint64 `json:"aborts"`
	Deadlocks          int    `json:"deadlocks"`
}

// Failure is one reported violation with its replay handles.
type Failure struct {
	Repro  string `json:"repro"`
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
	// Expected is true when every violation of the case was covered by the
	// scheme's expected-fail profile — the failure is an exhibit, not a
	// regression.
	Expected    bool   `json:"expected,omitempty"`
	ShrunkRepro string `json:"shrunk_repro,omitempty"`
}

// SchemeExpectation is the campaign-level contract of one expected-fail
// scheme: the campaign must demonstrate at least one violation of the
// scheme's expected oracles, or the scheme has quietly stopped being the
// adversary it documents (Met == false reddens the campaign with
// OracleExpectation semantics).
type SchemeExpectation struct {
	Scheme string `json:"scheme"`
	// Oracles lists the expected-fail oracle names, in profile order.
	Oracles []string `json:"oracles"`
	// Demonstrated is the total expected violations found across the
	// scheme's combos.
	Demonstrated int  `json:"demonstrated"`
	Met          bool `json:"met"`
}

// Summary is the campaign's machine-readable result. It contains no wall
// times, so a pinned-seed campaign marshals byte-identically across runs
// and hosts.
type Summary struct {
	SchemaVersion int            `json:"schema_version"`
	SeedBase      uint64         `json:"seed_base"`
	SeedsPerCombo int            `json:"seeds_per_combo"`
	HWFix         bool           `json:"hwfix,omitempty"`
	Combos        []ComboSummary `json:"combos"`
	TotalCases    int            `json:"total_cases"`
	// TotalViolations counts every oracle violation;
	// TotalExpected/TotalUnexpected partition it against the expected-fail
	// profiles. The gate verdict keys on TotalUnexpected and Expectations,
	// never on the raw total.
	TotalViolations int                 `json:"total_violations"`
	TotalExpected   int                 `json:"total_expected"`
	TotalUnexpected int                 `json:"total_unexpected"`
	Expectations    []SchemeExpectation `json:"expectations,omitempty"`
	// Verdict is "ok" when the campaign passes its gate (see Ok), "fail"
	// otherwise — the one field CI asserts on.
	Verdict  string         `json:"verdict"`
	Failures []Failure      `json:"failures"`
	Mutants  []MutantResult `json:"mutants,omitempty"`
}

// Ok reports the campaign gate: no unexpected violation anywhere, and every
// expected-fail scheme in the grid demonstrated at least one expected
// violation. (A campaign with no expected-fail schemes degenerates to the
// old "zero violations" gate.)
func (s Summary) Ok() bool {
	if s.TotalUnexpected > 0 {
		return false
	}
	for _, e := range s.Expectations {
		if !e.Met {
			return false
		}
	}
	return true
}

// SummarySchemaVersion is bumped on any incompatible Summary change.
// Version 2 added the expected-fail partition (total_expected,
// total_unexpected, expectations, verdict, per-combo expected_violations)
// and the hwfix echo.
const SummarySchemaVersion = 2

// comboSeed decorrelates the seed streams of distinct combos: adjacent raw
// seeds on the same combo stay adjacent (useful for -seed-base sweeps), but
// no two combos ever replay each other's workload sequence.
func comboSeed(base uint64, combo, i int) uint64 {
	r := splitmix{s: base + uint64(combo)*0x9E3779B97F4A7C15}
	return r.next() + uint64(i)
}

// RunCampaign fuzzes the configured grid and aggregates a Summary. Cases fan
// out on the fleet orchestrator and fold into the Summary as they complete:
// combo counters are commutative sums, and failures are listed in case
// order, round by round, so the Summary is a byte-identical function of
// (config, code) in pinned-seed mode at any worker count.
func RunCampaign(cfg CampaignConfig) Summary {
	schemes := cfg.Schemes
	if len(schemes) == 0 {
		schemes = RealSchemes()
	}
	lockNames := cfg.Locks
	if len(lockNames) == 0 {
		lockNames = RealLocks()
	}
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 1
	}

	type cell struct{ scheme, lock string }
	var grid []cell
	for _, s := range schemes {
		for _, l := range lockNames {
			grid = append(grid, cell{s, l})
		}
	}

	sum := Summary{
		SchemaVersion: SummarySchemaVersion,
		SeedBase:      cfg.SeedBase,
		SeedsPerCombo: seeds,
		HWFix:         cfg.HWFix,
		Combos:        make([]ComboSummary, len(grid)),
		Failures:      []Failure{},
	}
	for i, g := range grid {
		sum.Combos[i] = ComboSummary{Scheme: g.scheme, Lock: g.lock}
	}

	var foldMu sync.Mutex
	timeBoxed := !cfg.Deadline.IsZero()
	round := 0
	for {
		n := seeds
		if timeBoxed {
			n = 1 // one seed per combo per round, then re-check the clock
		}
		total := len(grid) * n
		// failures[j] is case j's failure, if any: each job writes only
		// its own slot, and the round's failures append in case order.
		failures := make([]*Failure, total)
		fleet.Run(cfg.Fleet, total, func(_, j int) {
			combo, i := j/n, j%n
			g := grid[combo]
			c := GenCase(g.scheme, g.lock, comboSeed(cfg.SeedBase, combo, round*n+i))
			c.HWFix = cfg.HWFix
			r := Run(c)

			// Streaming fold: shrinking (the expensive part of a failing
			// case) happens here on the worker, not in a serial pass.
			var f *Failure
			if len(r.Violations) > 0 {
				f = &Failure{
					Repro:    r.Case.Repro(),
					Oracle:   r.Violations[0].Oracle,
					Detail:   r.Violations[0].Detail,
					Expected: r.Unexpected() == 0,
				}
				if cfg.Shrink {
					// Shrink toward whichever class makes the case
					// reportable: an unexpected violation is a regression
					// (keep it unexpected while minimizing), an all-expected
					// case is an exhibit (keep the demonstration alive).
					keep := func(rr Result) bool { return rr.Unexpected() > 0 }
					if f.Expected {
						keep = func(rr Result) bool { return rr.Expected() > 0 }
					}
					f.ShrunkRepro = ShrinkWhere(r.Case, nil, keep).Repro()
				}
				failures[j] = f
			}
			foldMu.Lock()
			cs := &sum.Combos[combo]
			cs.Cases++
			cs.Violations += len(r.Violations)
			cs.ExpectedViolations += r.Expected()
			cs.Ops += r.Stats.Ops
			cs.SpecOps += r.Stats.Spec
			cs.Fallbacks += r.Stats.NonSpec
			cs.Aborts += r.Stats.Aborts
			if r.Deadlock {
				cs.Deadlocks++
			}
			sum.TotalCases++
			sum.TotalViolations += len(r.Violations)
			sum.TotalExpected += r.Expected()
			sum.TotalUnexpected += r.Unexpected()
			foldMu.Unlock()
		})
		for _, f := range failures {
			if f != nil {
				sum.Failures = append(sum.Failures, *f)
			}
		}
		round++
		if !timeBoxed || time.Now().After(cfg.Deadline) {
			break
		}
	}
	// Resolve the grid's expected-fail contracts: a scheme carrying one must
	// have demonstrated it somewhere in the grid, or the campaign fails even
	// with zero violations — the adversary going quiet is a checker
	// regression (see OracleExpectation).
	for _, s := range schemes {
		prof := profileFor(Case{Scheme: s, HWFix: cfg.HWFix}.withDefaults())
		if len(prof.expectFail) == 0 {
			continue
		}
		e := SchemeExpectation{Scheme: s, Oracles: append([]string(nil), prof.expectFail...)}
		for ci, g := range grid {
			if g.scheme == s {
				e.Demonstrated += sum.Combos[ci].ExpectedViolations
			}
		}
		e.Met = e.Demonstrated > 0
		sum.Expectations = append(sum.Expectations, e)
	}
	sum.Verdict = "fail"
	if sum.Ok() {
		sum.Verdict = "ok"
	}
	return sum
}

// Mutant is one deliberately broken scheme registered to prove the oracles
// have teeth. The mutants package holds the registry; modelcheck only
// defines the shape, keeping the dependency one-directional.
type Mutant struct {
	// Name identifies the mutant in summaries and reproducer strings.
	Name string
	// ProfileScheme is the real scheme whose oracle contract the mutant
	// claims (and fails) to implement; workloads and oracle profiles are
	// generated for it.
	ProfileScheme string
	// Lock is the lock name used for workload generation (the builder may
	// substitute a broken lock).
	Lock string
	// SeedBudget is the pinned number of seeds within which the mutant must
	// be caught.
	SeedBudget int
	// Build constructs the broken scheme (and the main lock it guards).
	Build SchemeBuilder
}

// MutantResult reports whether (and how fast) the oracles caught a mutant.
type MutantResult struct {
	Name       string `json:"name"`
	Caught     bool   `json:"caught"`
	SeedsTried int    `json:"seeds_tried"`
	SeedBudget int    `json:"seed_budget"`
	Oracle     string `json:"oracle,omitempty"`
	Repro      string `json:"repro,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// RunMutant fuzzes one mutant within its pinned seed budget, stopping at
// the first catch. Seeds derive from seedBase exactly as a campaign combo's
// do, so the budget is a regression-pinned property of the oracles.
//
// When the claimed profile is expected-fail (lazysub without the hardware
// fix), catching inverts: any unexpected violation catches the mutant
// immediately, and a mutant that burns the whole budget without a single
// expected violation is caught by OracleExpectation — it has defused the
// adversary (e.g. by subscribing eagerly), which the campaign gate must
// notice. A mutant that keeps demonstrating the expected violations behaves
// like the real scheme and escapes.
func RunMutant(mut Mutant, seedBase uint64, shrink bool) MutantResult {
	res := MutantResult{Name: mut.Name, SeedBudget: mut.SeedBudget}
	prof := profileFor(Case{Scheme: mut.ProfileScheme}.withDefaults())
	demonstrated := 0
	for i := 0; i < mut.SeedBudget; i++ {
		c := GenCase(mut.ProfileScheme, mut.Lock, comboSeed(seedBase, 0, i))
		c.Mutant = mut.Name
		res.SeedsTried = i + 1
		r := RunWith(c, mut.Build)
		if r.Unexpected() == 0 {
			demonstrated += r.Expected()
			continue
		}
		res.Caught = true
		for _, v := range r.Violations {
			if !v.Expected {
				res.Oracle = v.Oracle
				res.Detail = v.Detail
				break
			}
		}
		repro := c
		if shrink {
			repro = ShrinkWhere(c, mut.Build, func(rr Result) bool { return rr.Unexpected() > 0 })
		}
		res.Repro = repro.Repro()
		return res
	}
	if len(prof.expectFail) > 0 && demonstrated == 0 {
		res.Caught = true
		res.Oracle = OracleExpectation
		res.Detail = fmt.Sprintf("mutant claims scheme %q (expected to violate %s) but demonstrated no expected violation in %d seeds: the adversary has been defused",
			mut.ProfileScheme, strings.Join(prof.expectFail, ", "), mut.SeedBudget)
	}
	return res
}

// RunMutants runs every registered mutant and reports the results in
// registry order. An uncaught mutant is a checker regression, not a scheme
// bug — callers should fail loudly.
func RunMutants(muts []Mutant, seedBase uint64, shrink bool) ([]MutantResult, error) {
	out := make([]MutantResult, 0, len(muts))
	var firstErr error
	for _, mu := range muts {
		r := RunMutant(mu, seedBase, shrink)
		out = append(out, r)
		if !r.Caught && firstErr == nil {
			firstErr = fmt.Errorf("modelcheck: mutant %q escaped its %d-seed budget (oracles lost their teeth)",
				mu.Name, mu.SeedBudget)
		}
	}
	return out, firstErr
}
