// Command modelcheck fuzzes the scheme x lock surface under randomized
// workloads and perturbed schedules, holding every run to the invariant
// oracles in internal/modelcheck (serializability, mutual exclusion, SLR
// commit-safety, SCM structure, abort bounds, progress, counter
// conservation). Failing cases are reported as deterministic reproducer
// strings, optionally shrunk to minimal form.
//
//	modelcheck                         # pinned campaign over every real combo
//	modelcheck -quick                  # PR gate: small campaign + mutant teeth check
//	modelcheck -seeds 50 -shrink       # deeper campaign, shrink any failure
//	modelcheck -duration 10m -json -   # nightly: time-boxed, JSON to stdout
//	modelcheck -schemes opt-slr,slr-scm -locks ttas,mcs
//	modelcheck -mutants                # only the mutant regression suite
//	modelcheck -repro 'mc1:scheme=...' # replay one reproducer string
//
// Exit status: 0 when every oracle passed (and, where requested, every
// mutant was caught); 1 on violations, escaped mutants, or flag errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"elision/internal/cli"
	"elision/internal/fleet"
	"elision/internal/modelcheck"
	"elision/internal/modelcheck/mutants"
	"elision/internal/obs"
)

// errFailed distinguishes "the checker worked and found violations" from
// operational errors; both exit 1, but this one has already been reported.
var errFailed = errors.New("modelcheck: violations found")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFailed) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func validateNames(given, known []string, kind string) error {
	for _, g := range given {
		ok := false
		for _, k := range known {
			if g == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("modelcheck: unknown %s %q (known: %s)",
				kind, g, strings.Join(known, ", "))
		}
	}
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	seeds := fs.Int("seeds", 8, "seeds per scheme x lock combination")
	seedBase := fs.Uint64("seed-base", 1, "base seed for the campaign's deterministic seed streams")
	duration := fs.Duration("duration", 0, "time-box the campaign (overrides -seeds; rounds run until the box expires)")
	schemes := fs.String("schemes", "", "comma-separated scheme subset (default: all real schemes)")
	locksCSV := fs.String("locks", "", "comma-separated lock subset (default: all locks)")
	jsonOut := fs.String("json", "", "write the JSON summary to this path (- for stdout)")
	withMutants := fs.Bool("mutants", false, "run only the mutant regression suite")
	quick := fs.Bool("quick", false, "PR gate: 2-seed campaign plus the mutant suite")
	shrink := fs.Bool("shrink", false, "shrink failing cases to minimal reproducers")
	j := fs.Int("j", 0, "parallel fleet workers (0 = all host CPUs)")
	repro := fs.String("repro", "", "replay one reproducer string instead of running a campaign")
	hwfix := fs.Bool("hwfix", false, "arm the lazy-subscription hardware fix (abort on dangerous action while unsubscribed) on every case, including -repro replays")
	prom := fs.String("prom", "", "write the campaign's per-combo tallies as a Prometheus exposition here")
	fleetTrace := fs.String("fleet-trace", "", "write the fleet's self-profile as a Perfetto/Chrome trace here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("modelcheck: unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if *seeds < 1 {
		return fmt.Errorf("modelcheck: -seeds must be >= 1 (got %d)", *seeds)
	}
	fc, err := fleet.Flags(*j)
	if err != nil {
		return err
	}
	if *repro != "" {
		var stray string
		fs.Visit(func(f *flag.Flag) {
			if stray == "" && f.Name != "repro" && f.Name != "shrink" && f.Name != "hwfix" {
				stray = f.Name
			}
		})
		if stray != "" {
			return fmt.Errorf("modelcheck: -%s applies to a campaign, which -repro replaces; drop -%s", stray, stray)
		}
		return replay(*repro, *shrink, *hwfix, stdout)
	}
	schemeList := splitList(*schemes)
	lockList := splitList(*locksCSV)
	if err := validateNames(schemeList, modelcheck.RealSchemes(), "scheme"); err != nil {
		return err
	}
	if err := validateNames(lockList, modelcheck.RealLocks(), "lock"); err != nil {
		return err
	}

	prof := fleet.NewProfile()
	fc.Profile = prof
	fc.Progress = fleet.TTYProgressStatus(os.Stderr, "cases", prof.StatusLine)
	cfg := modelcheck.CampaignConfig{
		Schemes:  schemeList,
		Locks:    lockList,
		SeedBase: *seedBase,
		Seeds:    *seeds,
		Shrink:   *shrink,
		HWFix:    *hwfix,
		Fleet:    fc,
	}
	if *quick {
		cfg.Seeds = 2
	}
	if *duration > 0 {
		cfg.Deadline = time.Now().Add(*duration)
	}

	var sum modelcheck.Summary
	runCampaign := !*withMutants
	if runCampaign {
		sum = modelcheck.RunCampaign(cfg)
	} else {
		sum = modelcheck.Summary{SchemaVersion: modelcheck.SummarySchemaVersion,
			SeedBase: *seedBase, Verdict: "ok", Failures: []modelcheck.Failure{}}
	}

	var mutantErr error
	if *withMutants || *quick {
		sum.Mutants, mutantErr = modelcheck.RunMutants(mutants.All(), *seedBase, *shrink)
		if mutantErr != nil {
			sum.Verdict = "fail"
		}
	}

	if err := writeSummary(sum, runCampaign, *jsonOut, stdout); err != nil {
		return err
	}
	if *prom != "" {
		err := cli.Write(*prom, stdout, func(w io.Writer) error {
			reg := sum.Registry()
			if prof.Jobs() > 0 {
				fleetReg := obs.NewRegistry()
				prof.Metrics(fleetReg)
				obs.WritePrometheus(w, reg, fleetReg)
			} else {
				reg.WritePrometheus(w)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if *fleetTrace != "" {
		if err := cli.Write(*fleetTrace, stdout, prof.WritePerfetto); err != nil {
			return err
		}
	}
	if mutantErr != nil {
		return mutantErr
	}
	// The campaign gate is the verdict, not the raw violation count: an
	// expected-fail scheme (lazysub without -hwfix) is green exactly when
	// its documented violations showed up and nothing else did.
	if sum.Verdict != "ok" {
		return errFailed
	}
	return nil
}

// replay parses and re-runs a single reproducer string, resolving mutant
// builders through the registry. hwfix arms the hardware fix on top of
// whatever the string encodes, so one committed exhibit demonstrates both
// the break (exit 1) and the repair (exit 0) without editing the string.
func replay(repro string, shrink, hwfix bool, stdout io.Writer) error {
	c, err := modelcheck.ParseRepro(repro)
	if err != nil {
		return err
	}
	if hwfix {
		c.HWFix = true
	}
	var build modelcheck.SchemeBuilder
	if c.Mutant != "" {
		mu, ok := mutants.Lookup(c.Mutant)
		if !ok {
			return fmt.Errorf("modelcheck: reproducer names unknown mutant %q", c.Mutant)
		}
		build = mu.Build
	}
	r := modelcheck.RunWith(c, build)
	if shrink && len(r.Violations) > 0 {
		small := modelcheck.Shrink(c, build)
		if small != c {
			fmt.Fprintf(stdout, "shrunk: %s\n", small.Repro())
			r = modelcheck.RunWith(small, build)
		}
	}
	if len(r.Violations) == 0 {
		fmt.Fprintf(stdout, "PASS %s (ops=%d spec=%d fallbacks=%d aborts=%d)\n",
			r.Case.Repro(), r.Stats.Ops, r.Stats.Spec, r.Stats.NonSpec, r.Stats.Aborts)
		return nil
	}
	for _, v := range r.Violations {
		note := ""
		if v.Expected {
			note = " (expected for this scheme)"
		}
		fmt.Fprintf(stdout, "FAIL %s%s: %s\n", v.Oracle, note, v.Detail)
	}
	return errFailed
}

func writeSummary(sum modelcheck.Summary, ranCampaign bool, jsonOut string, stdout io.Writer) error {
	if jsonOut != "-" {
		writeText(sum, ranCampaign, stdout)
	}
	if jsonOut == "" {
		return nil
	}
	return cli.Write(jsonOut, stdout, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	})
}

func writeText(sum modelcheck.Summary, ranCampaign bool, w io.Writer) {
	if ranCampaign {
		fmt.Fprintf(w, "modelcheck: %d cases over %d combos (seed base %d): %d violation(s), %d expected, %d unexpected — verdict %s\n",
			sum.TotalCases, len(sum.Combos), sum.SeedBase, sum.TotalViolations,
			sum.TotalExpected, sum.TotalUnexpected, sum.Verdict)
		for _, cb := range sum.Combos {
			status := "ok"
			switch {
			case cb.Violations > cb.ExpectedViolations:
				status = fmt.Sprintf("%d VIOLATION(S)", cb.Violations-cb.ExpectedViolations)
			case cb.Violations > 0:
				status = fmt.Sprintf("%d expected violation(s)", cb.Violations)
			}
			fmt.Fprintf(w, "  %-16s %-13s cases=%-3d ops=%-6d spec=%-6d fallbacks=%-5d aborts=%-6d deadlocks=%d  %s\n",
				cb.Scheme, cb.Lock, cb.Cases, cb.Ops, cb.SpecOps, cb.Fallbacks, cb.Aborts, cb.Deadlocks, status)
		}
		for _, e := range sum.Expectations {
			status := "MET"
			if !e.Met {
				status = "UNMET (the adversary has gone quiet)"
			}
			fmt.Fprintf(w, "  expectation %-10s violates {%s}: demonstrated %d  %s\n",
				e.Scheme, strings.Join(e.Oracles, ", "), e.Demonstrated, status)
		}
		for _, f := range sum.Failures {
			label := "FAIL"
			if f.Expected {
				label = "expected-fail"
			}
			fmt.Fprintf(w, "  %s %s: %s\n", label, f.Oracle, f.Detail)
			if f.ShrunkRepro != "" {
				fmt.Fprintf(w, "       shrunk: %s\n", f.ShrunkRepro)
			}
		}
	}
	for _, mr := range sum.Mutants {
		if mr.Caught {
			fmt.Fprintf(w, "  mutant %-14s caught in %d/%d seed(s) by %s\n",
				mr.Name, mr.SeedsTried, mr.SeedBudget, mr.Oracle)
		} else {
			fmt.Fprintf(w, "  mutant %-14s ESCAPED its %d-seed budget\n", mr.Name, mr.SeedBudget)
		}
	}
}
