// Command elide runs a single configurable benchmark point and prints its
// statistics — the workhorse for exploring the parameter space by hand:
//
//	elide -scheme hle-scm -lock mcs -size 1024 -mix 10,10 -threads 8
//	elide -scheme opt-slr -lock ttas -structure hashtable -smt
//	elide -scheme hle -lock mcs -abort-breakdown
//	elide -scheme hle -lock mcs -hot-lines 8 -metrics - -trace-json run.json
//	elide -scheme hle -lock mcs -causality -trace-json run.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"elision/internal/cli"
	"elision/internal/core"
	"elision/internal/harness"
	"elision/internal/htm"
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
	"elision/internal/sim"
	"elision/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("elide", flag.ContinueOnError)
	threads := fs.Int("threads", 8, "simulated hardware threads")
	schemeName := fs.String("scheme", "hle", "scheme: "+strings.Join(core.SchemeNames(), "|"))
	lockName := fs.String("lock", "ttas", "lock: "+strings.Join(core.LockNames(), "|"))
	adaptive := fs.String("adaptive", "", "adaptive-family config, retry/forfeit per abort class as conflict,busy,capacity,other (e.g. 5/2,16/5,0/8,3/3); requires -scheme adaptive-hle|adaptive-slr")
	structure := fs.String("structure", "rbtree", "data structure: rbtree|hashtable")
	size := fs.Uint("size", 1024, "steady-state element count")
	mixFlag := fs.String("mix", "10,10", "insertPct,deletePct (rest lookups)")
	budget := fs.Uint64("budget", 2_000_000, "virtual-cycle budget per thread")
	seed := fs.Uint64("seed", 42, "random seed")
	quantum := fs.Uint64("quantum", 128, "scheduler quantum in cycles (cmd/tune's lemming workload uses 5000)")
	smt := fs.Bool("smt", false, "4-core/8-hyperthread topology")
	breakdown := fs.Bool("abort-breakdown", false, "print the abort-cause histogram")
	traceJSON := fs.String("trace-json", "", "write the run's Chrome/Perfetto trace-event JSON to this file")
	metricsOut := fs.String("metrics", "", "write the metrics report to this file ('-' = stdout; a .csv suffix selects CSV)")
	hotLines := fs.Int("hot-lines", 0, "print the top-N conflict hot lines")
	causal := fs.Bool("causality", false, "attach the abort-causality engine: print the speculation-health scorecard and add cascade flow arrows to -trace-json")
	flightOn := fs.Bool("flight", false, "attach the flight recorder: print the attempt-chain summary (cycles-to-commit percentiles, cycle partition) and fold flight_* families into -metrics")
	hwfix := fs.Bool("hwfix", false, "arm the lazy-subscription hardware fix (htm aborts dangerous actions in unsubscribed transactions); only lazysub behaves differently")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("elide: unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	// Validate against the factory's roster so a typo is a flag error with
	// usage, not a harness panic mid-run.
	if !slices.Contains(core.SchemeNames(), *schemeName) {
		return fmt.Errorf("elide: unknown -scheme %q (known: %s)", *schemeName, strings.Join(core.SchemeNames(), "|"))
	}
	if !slices.Contains(core.LockNames(), *lockName) {
		return fmt.Errorf("elide: unknown -lock %q (known: %s)", *lockName, strings.Join(core.LockNames(), "|"))
	}
	if *adaptive != "" {
		if !core.AdaptiveSchemeName(*schemeName) {
			return fmt.Errorf("elide: -adaptive requires -scheme %s or %s (got %q)",
				core.SchemeNameAdaptiveHLE, core.SchemeNameAdaptiveSLR, *schemeName)
		}
		if _, err := core.ParseAdaptiveConfig(*adaptive); err != nil {
			return fmt.Errorf("elide: bad -adaptive %q: %w", *adaptive, err)
		}
	}
	if *threads < 1 || *threads > sim.MaxProcs {
		return fmt.Errorf("elide: -threads must be in [1,%d] (got %d)", sim.MaxProcs, *threads)
	}
	if *schemeName == core.SchemeNameNoLock && *threads > 1 {
		return fmt.Errorf("elide: -scheme nolock runs unsynchronized and needs -threads 1 (got %d)", *threads)
	}
	if *quantum == 0 {
		return fmt.Errorf("elide: -quantum must be > 0")
	}
	if *hotLines < 0 {
		return fmt.Errorf("elide: -hot-lines must be >= 0 (got %d)", *hotLines)
	}
	if *budget == 0 {
		return fmt.Errorf("elide: -budget must be > 0")
	}
	mix, err := harness.ParseMix(*mixFlag)
	if err != nil {
		return fmt.Errorf("elide: -mix: %w", err)
	}
	st := harness.StructTree
	if *structure == "hashtable" {
		st = harness.StructHash
	} else if *structure != "rbtree" {
		return fmt.Errorf("elide: unknown -structure %q", *structure)
	}
	cfg := harness.DSConfig{
		Structure:    st,
		Threads:      *threads,
		Size:         int(*size),
		Mix:          mix,
		Scheme:       harness.SchemeID(*schemeName),
		Lock:         harness.LockID(*lockName),
		BudgetCycles: *budget,
		Seed:         *seed,
		Quantum:      *quantum,
		ACfg:         *adaptive,
		HWFix:        *hwfix,
	}
	if *smt {
		cfg.Cores = 4
	}

	// Attach observability sinks only when a flag asks for their output;
	// an unobserved run produces identical virtual-time results either way.
	var col *obs.Collector
	var tr *trace.Tracer
	var eng *causality.Engine
	var rec *flight.Recorder
	if *metricsOut != "" || *hotLines > 0 || *causal || *flightOn {
		col = obs.NewCollector(string(cfg.Scheme), string(cfg.Lock), cfg.BudgetCycles/20)
	}
	if *causal {
		eng = causality.Attach(col, causality.Config{})
	}
	if *flightOn {
		rec = flight.Attach(col, flight.Config{})
	}
	if *traceJSON != "" {
		tr = trace.New(0)
	}
	res := harness.NewInstance(nil).RunObserved(cfg, col, tr)
	s := res.Stats

	fmt.Fprintf(stdout, "%s over %s, %d threads, size %d, %s, %d cycles\n",
		*schemeName, *lockName, *threads, *size, mix.Name(), res.Cycles)
	fmt.Fprintf(stdout, "  operations        %d (%.1f per Mcycle)\n", s.Ops, res.Throughput())
	fmt.Fprintf(stdout, "  speculative       %d (%.1f%%)\n", s.Spec, 100*(1-s.NonSpecFraction()))
	fmt.Fprintf(stdout, "  non-speculative   %d\n", s.NonSpec)
	fmt.Fprintf(stdout, "  aborts            %d (%.2f attempts/op)\n", s.Aborts, s.AttemptsPerOp())
	if s.AuxAcquires > 0 {
		fmt.Fprintf(stdout, "  serializing path  %d entries\n", s.AuxAcquires)
	}
	if core.AdaptiveSchemeName(*schemeName) {
		fmt.Fprintf(stdout, "  forfeit windows   %d opened, %d closed, %d ops forfeited\n",
			s.ForfeitEntries, s.ForfeitExits, s.ForfeitOps)
		for cl := core.AbortClass(0); int(cl) < core.NumAbortClasses; cl++ {
			if n := s.ExhaustedByClass[cl]; n > 0 {
				fmt.Fprintf(stdout, "    budget exhausted on %-9s %d\n", cl, n)
			}
		}
	}
	if *breakdown {
		fmt.Fprintln(stdout, "  final-abort causes:")
		for c := htm.Cause(0); int(c) < htm.NumCauses; c++ {
			if n := s.ByCause[c]; n > 0 {
				fmt.Fprintf(stdout, "    %-12s %d\n", c, n)
			}
		}
	}

	annotate := func(line int) string {
		if res.HasLockLine(line) {
			return " (lock)"
		}
		return ""
	}
	if *hotLines > 0 {
		fmt.Fprintln(stdout)
		col.Hot.WriteText(stdout, *hotLines, annotate)
	}
	if eng != nil {
		fmt.Fprintln(stdout)
		eng.WriteText(stdout)
	}
	if rec != nil {
		rec.WriteText(stdout)
	}
	if *metricsOut != "" {
		err := cli.Write(*metricsOut, stdout, func(w io.Writer) error {
			if strings.HasSuffix(*metricsOut, ".csv") {
				col.WriteCSV(w)
			} else {
				col.WriteText(w, *hotLines, annotate)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("elide: %w", err)
		}
	}
	if *traceJSON != "" {
		err := cli.Write(*traceJSON, stdout, func(w io.Writer) error {
			causeName := func(arg int64) string { return htm.Cause(arg).String() }
			if eng != nil {
				return trace.WriteChromeTraceFlows(w, tr.Events(), causeName, eng.FlowEvents())
			}
			return trace.WriteChromeTrace(w, tr.Events(), causeName)
		})
		if err != nil {
			return fmt.Errorf("elide: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %d trace events to %s (open in ui.perfetto.dev or chrome://tracing)\n",
			tr.Len(), *traceJSON)
	}
	return nil
}
