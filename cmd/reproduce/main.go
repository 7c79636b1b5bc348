// Command reproduce regenerates every table of the paper's evaluation and
// of the repository's extension experiments in one process (sharing a
// memoized point cache across tables). Each job writes its tables to
// stdout and to <name>.txt in the results/ directory, with a CSV twin
// <name>.csv:
//
//	go run ./cmd/reproduce                          # full scale (about 25 s at 2 CPUs)
//	go run ./cmd/reproduce -quick                   # reduced scale (about 2 s)
//	go run ./cmd/reproduce -quick -only figure2,timeline
//	go run ./cmd/reproduce -j 8                     # pin the fleet to 8 workers
//
// -only names jobs by their results/ file stem; a bad name lists them all.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/harness"
	"elision/internal/obs"
	"elision/internal/obs/rollup"
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
	var only []string // nil = every job
	fs.Func("only", "run only these comma-separated jobs, named by their results/ file stem (e.g. figure2,timeline)", func(s string) error {
		only = strings.Split(s, ",")
		return nil
	})
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

	r := harness.NewRunner()
	r.Fleet = fc
	prof := fleet.NewProfile()
	r.Fleet.Profile = prof
	// The progress line carries live fleet state: worker occupancy, steals,
	// and the prefill-cache hit rate so far.
	r.Fleet.Progress = fleet.TTYProgressStatus(os.Stderr, "points", func() string {
		s := prof.StatusLine()
		if hits, misses := r.PrefillStats(); hits+misses > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("prefill %.0f%%", 100*float64(hits)/float64(hits+misses))
		}
		return s
	})

	// The job list is the registry of -only names: each name is the job's
	// results/ file stem, and jobs run in this order. A table job's tables
	// go to <name>.txt and <name>.csv; a text job's text to <name>.txt.
	type job struct {
		name string
		gen  func() ([]harness.Table, error)
		text func() string
	}
	jobs := []job{
		{name: "figure2", gen: func() ([]harness.Table, error) { return harness.Figure2(r, sc), nil }},
		{name: "figure3", gen: func() ([]harness.Table, error) { return harness.Figure3(r, sc), nil }},
		{name: "figure4", gen: func() ([]harness.Table, error) { return harness.Figure4(r, sc), nil }},
		{name: "figure9", gen: func() ([]harness.Table, error) { return harness.Figure9(r, sc), nil }},
		{name: "figure10", gen: func() ([]harness.Table, error) { return harness.Figure10(r, sc), nil }},
		{name: "hashtable", gen: func() ([]harness.Table, error) { return harness.HashTableComparison(r, sc), nil }},
		{name: "figure11", gen: func() ([]harness.Table, error) { return harness.Figure11(r, ssc) }},
		{name: "analysis", gen: func() ([]harness.Table, error) { return harness.AnalysisTables(r, sc), nil }},
		{name: "figure9-smt", gen: func() ([]harness.Table, error) { return harness.SMTFigure9(r, sc, 4), nil }},
		{name: "scm-groups", gen: func() ([]harness.Table, error) { return harness.GroupedSCMAblation(r, sc), nil }},
		{name: "finegrained", gen: func() ([]harness.Table, error) { return harness.FineGrainedComparison(sc), nil }},
		{name: "fairness", gen: func() ([]harness.Table, error) { return harness.FairnessComparison(sc), nil }},
		{name: "sensitivity", gen: func() ([]harness.Table, error) { return harness.CostSensitivity(sc), nil }},
		{name: "fairlocks", gen: func() ([]harness.Table, error) { return harness.FairLockLemming(r, sc), nil }},
		{name: "timeline", text: func() string {
			return harness.LemmingTimeline(sc, harness.LockTTAS) + "\n" +
				harness.LemmingTimeline(sc, harness.LockMCS) + "\n"
		}},
	}
	if *adaptive != "" {
		jobs = append(jobs, job{name: "adaptive", gen: func() ([]harness.Table, error) {
			return harness.AdaptiveFrontier(r, sc, acfg), nil
		}})
	}
	if only != nil {
		var names []string
		for _, j := range jobs {
			names = append(names, j.name)
		}
		for _, name := range only {
			if !slices.Contains(names, name) {
				return fmt.Errorf("reproduce: unknown -only job %q (known: %s; adaptive needs -adaptive)", name, strings.Join(names, ","))
			}
		}
		jobs = slices.DeleteFunc(jobs, func(j job) bool { return !slices.Contains(only, j.name) })
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	write := func(j job) error {
		var text string
		var tables []harness.Table
		var err error
		if j.text != nil {
			text = j.text()
		} else if tables, err = j.gen(); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*outDir, j.name+".txt"))
		if err != nil {
			return err
		}
		w := io.MultiWriter(stdout, f)
		_, err = io.WriteString(w, text)
		for i := range tables {
			tables[i].Render(w)
		}
		if err = errors.Join(err, f.Close()); err != nil || j.text != nil {
			return err // a text job has no CSV twin
		}
		c, err := os.Create(filepath.Join(*outDir, j.name+".csv"))
		if err != nil {
			return err
		}
		for i := range tables {
			tables[i].RenderCSV(c)
		}
		return c.Close()
	}
	for _, j := range jobs {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== %s ==\n", j.name)
		if err := write(j); err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		fmt.Fprintf(os.Stderr, "   %s done in %v\n", j.name, time.Since(start).Round(time.Millisecond))
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
