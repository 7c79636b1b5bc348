// Command diagnose runs the abort-causality engine over the §4
// serialization-dynamics workload and reports, per scheme/lock combination,
// whether the run exhibits the lemming effect: fallback-rooted serialization
// epochs, cascade depths, the fraction of virtual time serialized, and a
// one-line verdict.
//
//	diagnose                 # full-scale panel, human-readable table
//	diagnose -quick          # test-scale panel (CI smoke)
//	diagnose -json out.json  # machine-readable verdict document
//	diagnose -scheme hle -lock mcs   # restrict the panel
//
// Exit status is 0 whenever the diagnosis completes; the verdicts themselves
// are data, not errors. Unknown -scheme/-lock names are flag errors (exit 1),
// not a silent fallback to the default panel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/harness"
	"elision/internal/obs/causality"
	"elision/internal/obs/rollup"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "test-scale run (fast, for CI smoke)")
	jsonOut := fs.String("json", "", "also write the verdict document as JSON to this path (- for stdout)")
	promOut := fs.String("prom", "", "also write the panel's campaign rollup (flight_* chain analytics included) as a Prometheus exposition to this path (- for stdout)")
	scheme := fs.String("scheme", "", "restrict the panel to one scheme (e.g. hle, opt-slr, hle-scm)")
	lock := fs.String("lock", "", "restrict the panel to one lock (e.g. mcs, ttas, ticket-hle)")
	budget := fs.Uint64("budget", 0, "virtual-cycle budget per thread (0 = scale default)")
	gap := fs.Uint64("gap", 0, "epoch gap cycles (0 = engine default)")
	j := fs.Int("j", 0, "parallel fleet workers (0 = all host CPUs)")
	shards := fs.Int("shards", 0, "fleet work-stealing shards (0 = one per worker)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fc, err := fleet.Flags(*j, *shards)
	if err != nil {
		return err
	}

	sc := harness.DefaultScale()
	if *quick {
		sc = harness.TestScale()
	}
	if *budget > 0 {
		sc.Budget = *budget
	}

	if *scheme != "" && !slices.Contains(core.SchemeNames(), *scheme) {
		return fmt.Errorf("diagnose: unknown scheme %q (known: %s)", *scheme, strings.Join(core.SchemeNames(), ", "))
	}
	if *lock != "" && !slices.Contains(core.LockNames(), *lock) {
		return fmt.Errorf("diagnose: unknown lock %q (known: %s)", *lock, strings.Join(core.LockNames(), ", "))
	}

	panel := harness.DefaultDiagnosePanel()
	if *scheme != "" || *lock != "" {
		var sel []harness.DiagnosePoint
		for _, p := range panel {
			if (*scheme == "" || string(p.Scheme) == *scheme) &&
				(*lock == "" || string(p.Lock) == *lock) {
				sel = append(sel, p)
			}
		}
		if len(sel) == 0 {
			// Valid names, but not a default-panel point: run it directly.
			s, l := harness.SchemeID(*scheme), harness.LockID(*lock)
			if s == "" {
				s = harness.SchemeHLE
			}
			if l == "" {
				l = harness.LockMCS
			}
			sel = []harness.DiagnosePoint{{Scheme: s, Lock: l}}
		}
		panel = sel
	}

	var ru *rollup.Campaign
	if *promOut != "" {
		ru = rollup.New()
	}
	d := harness.DiagnoseRollup(sc, panel, causality.Config{GapCycles: *gap}, fc, ru)

	if *jsonOut != "-" && *promOut != "-" {
		d.WriteText(stdout)
	}
	if *jsonOut != "" {
		out := stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	if *promOut != "" {
		out := stdout
		if *promOut != "-" {
			f, err := os.Create(*promOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		ru.WritePrometheus(out)
	}
	return nil
}
