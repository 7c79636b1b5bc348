// Command tune runs the offline auto-tuner for the adaptive elision family:
// a successive-halving search over the retry-budget/forfeit-window space,
// evaluated as a fleet campaign on pooled simulator instances.
//
//	tune -smoke                          # CI-sized search on the lemming workload
//	tune -candidates 32 -budget 400000   # wider, longer search
//	tune -json frontier.json             # machine-readable elision-tune/v1 document
//	tune -scheme adaptive-hle -lock ttas # tune a different family member / lock
//
// The emitted JSON and table are byte-deterministic at any -j: worker count
// only changes how fast the search finishes, never what it finds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/harness"
	"elision/internal/tuner"
)

// adaptiveSchemes are the tunable family members; the fixed-policy schemes
// have nothing to tune.
var adaptiveSchemes = []string{core.SchemeNameAdaptiveHLE, core.SchemeNameAdaptiveSLR}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	schemeName := fs.String("scheme", core.SchemeNameAdaptiveSLR, "adaptive family member to tune: adaptive-hle|adaptive-slr")
	lockName := fs.String("lock", core.LockNameMCS, "lock: "+strings.Join(core.LockNames(), "|"))
	structure := fs.String("structure", "rbtree", "data structure: rbtree|hashtable")
	size := fs.Int("size", 0, "steady-state element count (0 = the lemming workload's)")
	mixFlag := fs.String("mix", "10,10", "insertPct,deletePct (rest lookups)")
	threads := fs.Int("threads", 0, "simulated hardware threads (0 = the lemming workload's SMT topology)")
	budget := fs.Uint64("budget", 400_000, "final-rung virtual-cycle budget per thread")
	seeds := fs.Int("seeds", 3, "workload seeds each evaluation averages over")
	seed := fs.Uint64("seed", 42, "first workload seed")
	candidates := fs.Int("candidates", 24, "initial candidate-population size")
	eta := fs.Int("eta", 2, "successive-halving factor (keep 1/eta per rung)")
	spaceSeed := fs.Uint64("space-seed", 0, "candidate-space sampler seed")
	jsonOut := fs.String("json", "", "write the elision-tune/v1 JSON document to this file ('-' = stdout)")
	promOut := fs.String("prom", "", "re-run the winner and baselines observed and write the campaign rollup (flight_* chain analytics included) as a Prometheus exposition here ('-' = stdout)")
	smoke := fs.Bool("smoke", false, "CI-sized pinned search on the lemming workload (overrides workload and search flags)")
	j := fs.Int("j", 0, "parallel fleet workers (0 = all host cores); never affects results")
	shards := fs.Int("shards", 0, "work-stealing shards per worker (0 = auto)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("tune: unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	fc, err := fleet.Flags(*j, *shards)
	if err != nil {
		return err
	}

	cfg := tuner.SmokeConfig(fc)
	if !*smoke {
		if !slices.Contains(adaptiveSchemes, *schemeName) {
			return fmt.Errorf("tune: -scheme %q is not tunable (known: %s)", *schemeName, strings.Join(adaptiveSchemes, "|"))
		}
		if !slices.Contains(core.LockNames(), *lockName) {
			return fmt.Errorf("tune: unknown -lock %q (known: %s)", *lockName, strings.Join(core.LockNames(), "|"))
		}
		mix, err := harness.ParseMix(*mixFlag)
		if err != nil {
			return fmt.Errorf("tune: -mix: %w", err)
		}
		st := harness.StructTree
		if *structure == "hashtable" {
			st = harness.StructHash
		} else if *structure != "rbtree" {
			return fmt.Errorf("tune: unknown -structure %q", *structure)
		}
		if *threads < 0 {
			return fmt.Errorf("tune: -threads must be >= 1 (got %d)", *threads)
		}
		if *size < 0 {
			return fmt.Errorf("tune: -size must be >= 1 (got %d)", *size)
		}
		if *seeds < 1 {
			return fmt.Errorf("tune: -seeds must be >= 1 (got %d)", *seeds)
		}
		if *candidates < 1 {
			return fmt.Errorf("tune: -candidates must be >= 1 (got %d)", *candidates)
		}
		if *eta < 2 {
			return fmt.Errorf("tune: -eta must be >= 2 (got %d)", *eta)
		}
		if *budget == 0 {
			return fmt.Errorf("tune: -budget must be > 0")
		}
		wl := tuner.LemmingWorkload()
		wl.Structure = st
		wl.Mix = mix
		wl.Lock = harness.LockID(*lockName)
		wl.Seed = *seed
		if *size > 0 {
			wl.Size = *size
		}
		if *threads > 0 {
			wl.Threads = *threads
			if *threads != 8 {
				// The SMT default (8 threads over 4 cores) only fits the
				// default thread count; otherwise run one proc per core.
				wl.Cores = 0
			}
		}
		cfg = tuner.Config{
			Scheme:      harness.SchemeID(*schemeName),
			Workload:    wl,
			Candidates:  *candidates,
			Eta:         *eta,
			Seeds:       *seeds,
			SpaceSeed:   *spaceSeed,
			FinalBudget: *budget,
			Fleet:       fc,
		}
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("tune: %w", err)
	}

	res, err := tuner.Run(cfg)
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}

	tb := res.FrontierTable()
	tb.Render(stdout)
	h := res.Hypothesis
	fmt.Fprintf(stdout, "winner %s: %.2f ops/Mcycle vs fixed-MAX_RETRIES SLR %.2f (tuned beats SLR: %v)\n",
		res.Winner.Config, h.TunedOpsPerMcycle, h.SLROpsPerMcycle, h.TunedBeatsSLR)
	if h.SCMOpsPerMcycle > h.SLROpsPerMcycle {
		fmt.Fprintf(stdout, "SLR->SCM gap closed: %.1f%% (SCM %.2f)\n", h.GapClosedPct, h.SCMOpsPerMcycle)
	} else {
		fmt.Fprintf(stdout, "no SLR->SCM gap at this point (SCM %.2f <= SLR %.2f)\n", h.SCMOpsPerMcycle, h.SLROpsPerMcycle)
	}

	if *jsonOut != "" {
		w := stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return fmt.Errorf("tune: %w", err)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fmt.Errorf("tune: %w", err)
		}
	}
	if *promOut != "" {
		ru := tuner.ObservedRollup(cfg, res)
		w := stdout
		if *promOut != "-" {
			f, err := os.Create(*promOut)
			if err != nil {
				return fmt.Errorf("tune: %w", err)
			}
			defer f.Close()
			w = f
		}
		ru.WritePrometheus(w)
	}
	return nil
}
