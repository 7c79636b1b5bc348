// Command reproduce regenerates every figure of the paper's evaluation in
// one process (sharing a memoized point cache across figures) and writes
// the tables to the results/ directory as well as stdout:
//
//	go run ./cmd/reproduce            # full scale (tens of minutes)
//	go run ./cmd/reproduce -quick     # reduced scale (about a minute)
//	go run ./cmd/reproduce -j 8       # pin the fleet to 8 workers
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/harness"
	"elision/internal/htm"
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/rollup"
	"elision/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced scale")
	outDir := fs.String("out", "results", "output directory")
	traceJSON := fs.String("trace-json", "", "write the §4 lemming run's Chrome/Perfetto trace-event JSON to this file")
	metricsOut := fs.String("metrics", "", "write the §4 lemming run's metrics report to this file ('-' = stdout; a .csv suffix selects CSV)")
	hotLines := fs.Int("hot-lines", 0, "print the §4 lemming run's top-N conflict hot lines")
	j := fs.Int("j", 0, "parallel fleet workers (0 = all host CPUs)")
	shards := fs.Int("shards", 0, "fleet work-stealing shards (0 = one per worker)")
	adaptive := fs.String("adaptive", "", "also emit the adaptive-frontier table (results/adaptive.txt) comparing the adaptive family under this config (e.g. a cmd/tune winner, or 'default') against the fixed-policy schemes")
	rollupOut := fs.String("rollup", "", "after the figures, re-run every computed point observed and write the campaign speculation-health rollup here ('-' = stdout)")
	flightOn := fs.Bool("flight", false, "attach a flight recorder to every observed-pass point, folding the flight_* attempt-chain analytics into -rollup / -prom")
	prom := fs.String("prom", "", "write the campaign rollup plus fleet self-metrics as a Prometheus exposition here (implies the observed pass)")
	fleetTrace := fs.String("fleet-trace", "", "write the fleet's self-profile as a Perfetto/Chrome trace here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("reproduce: unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	fc, err := fleet.Flags(*j, *shards)
	if err != nil {
		return err
	}
	if *flightOn && *rollupOut == "" && *prom == "" {
		return fmt.Errorf("reproduce: -flight augments the observed pass; add -rollup or -prom")
	}
	acfg := *adaptive
	if acfg == "default" {
		acfg = ""
	} else if acfg != "" {
		if _, err := core.ParseAdaptiveConfig(acfg); err != nil {
			return fmt.Errorf("reproduce: bad -adaptive %q: %w", acfg, err)
		}
	}

	sc := harness.DefaultScale()
	ssc := harness.DefaultStampScale()
	if *quick {
		sc = harness.TestScale()
		ssc = harness.TestStampScale()
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	if *traceJSON != "" || *metricsOut != "" || *hotLines > 0 {
		if err := observeLemming(sc, *traceJSON, *metricsOut, *hotLines); err != nil {
			return err
		}
	}

	r := harness.NewRunner()
	r.Workers = fc.Workers
	r.Shards = fc.Shards
	prof := fleet.NewProfile()
	r.Profile = prof
	// The progress line carries live fleet state: worker occupancy, steals,
	// and the prefill-cache hit rate so far.
	r.Progress = fleet.TTYProgressStatus(os.Stderr, "points", func() string {
		s := prof.StatusLine()
		if hits, misses := r.PrefillStats(); hits+misses > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("prefill %.0f%%", 100*float64(hits)/float64(hits+misses))
		}
		return s
	})

	write := func(name string, tables []harness.Table) error {
		f, err := os.Create(filepath.Join(*outDir, name+".txt"))
		if err != nil {
			return err
		}
		defer f.Close()
		w := io.MultiWriter(stdout, f)
		for i := range tables {
			tables[i].Render(w)
		}
		c, err := os.Create(filepath.Join(*outDir, name+".csv"))
		if err != nil {
			return err
		}
		defer c.Close()
		for i := range tables {
			tables[i].RenderCSV(c)
		}
		return nil
	}

	type job struct {
		name string
		gen  func() ([]harness.Table, error)
	}
	jobs := []job{
		{"figure2", func() ([]harness.Table, error) { return harness.Figure2(r, sc), nil }},
		{"figure3", func() ([]harness.Table, error) { return harness.Figure3(r, sc), nil }},
		{"figure4", func() ([]harness.Table, error) { return harness.Figure4(r, sc), nil }},
		{"figure9", func() ([]harness.Table, error) { return harness.Figure9(r, sc), nil }},
		{"figure10", func() ([]harness.Table, error) { return harness.Figure10(r, sc), nil }},
		{"hashtable", func() ([]harness.Table, error) { return harness.HashTableComparison(r, sc), nil }},
		{"figure11", func() ([]harness.Table, error) {
			return harness.Figure11(ssc, fc.Workers, r.Progress)
		}},
		{"analysis", func() ([]harness.Table, error) { return harness.AnalysisTables(r, sc), nil }},
		{"figure9-smt", func() ([]harness.Table, error) { return harness.SMTFigure9(r, sc, 4), nil }},
		{"scm-groups", func() ([]harness.Table, error) { return harness.GroupedSCMAblation(r, sc), nil }},
		{"finegrained", func() ([]harness.Table, error) { return harness.FineGrainedComparison(sc), nil }},
		{"fairness", func() ([]harness.Table, error) { return harness.FairnessComparison(sc), nil }},
		{"sensitivity", func() ([]harness.Table, error) { return harness.CostSensitivity(sc), nil }},
		{"fairlocks", func() ([]harness.Table, error) { return harness.FairLockLemming(r, sc), nil }},
	}
	if *adaptive != "" {
		jobs = append(jobs, job{"adaptive", func() ([]harness.Table, error) {
			return harness.AdaptiveFrontier(r, sc, acfg), nil
		}})
	}
	for _, j := range jobs {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== %s ==\n", j.name)
		tables, err := j.gen()
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if err := write(j.name, tables); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "   %s done in %v\n", j.name, time.Since(start).Round(time.Second))
	}

	if *rollupOut != "" || *prom != "" {
		// Post-hoc observed pass: every point the figures computed re-runs
		// with collector + causality engine attached on the same (warm) pool.
		// Observed runs are bit-identical to the unobserved ones, and the
		// rollup's artifacts are byte-identical at any -j.
		cfgs := r.CachedConfigs()
		fmt.Fprintf(os.Stderr, "== rollup (observed pass over %d points) ==\n", len(cfgs))
		ru := rollup.New()
		r.Flight = *flightOn
		r.RunAllRollup(cfgs, ru)
		if *rollupOut != "" {
			w := stdout
			if *rollupOut != "-" {
				f, err := os.Create(*rollupOut)
				if err != nil {
					return err
				}
				defer f.Close()
				w = f
			}
			ru.WriteText(w)
		}
		if *prom != "" {
			fleetReg := obs.NewRegistry()
			r.Metrics(fleetReg)
			prof.Metrics(fleetReg)
			f, err := os.Create(*prom)
			if err != nil {
				return err
			}
			ru.WritePrometheus(f, fleetReg)
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "   wrote %s\n", *prom)
		}
	}
	if *fleetTrace != "" {
		f, err := os.Create(*fleetTrace)
		if err != nil {
			return err
		}
		if err := prof.WritePerfetto(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "   wrote fleet trace %s\n", *fleetTrace)
	}
	return nil
}

// observeLemming runs the §4 serialization-dynamics point (plain HLE over
// MCS) with the observability rig and abort-causality engine attached and
// writes whichever outputs the flags requested: the hot-line table to
// stdout, the metrics report (scorecard included), and the Chrome
// trace-event JSON with cascade flow arrows.
func observeLemming(sc harness.Scale, traceJSON, metricsOut string, hotN int) error {
	fmt.Fprintln(os.Stderr, "== observe (§4 lemming point: hle over mcs) ==")
	cfg := sc.Section4Config(harness.SchemeHLE, harness.LockMCS)
	col := obs.NewCollector(string(cfg.Scheme), string(cfg.Lock), cfg.BudgetCycles/20)
	eng := causality.Attach(col, causality.Config{})
	var tr *trace.Tracer
	if traceJSON != "" {
		tr = trace.New(0)
	}
	res := harness.RunDataStructureObserved(cfg, col, tr)
	fmt.Fprintf(os.Stderr, "   %s\n", eng.Report().Verdict("hle", "mcs"))
	annotate := func(line int) string {
		if res.HasLockLine(line) {
			return " (lock)"
		}
		return ""
	}
	if hotN > 0 {
		col.Hot.WriteText(os.Stdout, hotN, annotate)
	}
	if metricsOut != "" {
		w := os.Stdout
		if metricsOut != "-" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if strings.HasSuffix(metricsOut, ".csv") {
			col.WriteCSV(w)
		} else {
			col.WriteText(w, hotN, annotate)
		}
	}
	if traceJSON != "" {
		f, err := os.Create(traceJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteChromeTraceFlows(f, tr.Events(), func(arg int64) string {
			return htm.Cause(arg).String()
		}, eng.FlowEvents()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "   wrote %d trace events to %s\n", tr.Len(), traceJSON)
	}
	return nil
}
