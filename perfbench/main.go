// Command perfbench is the simulator's benchmark. It runs one workload as
// a fleet campaign from a single process, the way cmd tools run figure
// sweeps and diagnosis panels, and prints every metric by name and unit;
// the last line of standard output is one JSON object with the results.
//
//	perfbench -workload spec-read -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of the timed phase. With
// -trace 1 it also re-executes a sample of the run's jobs through its own
// traced driver and reports per-layer metrics instead. -diff compares two
// traced reports layer by layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// metricJSON is a metric's form in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: spec-read, contend-write or diagnose-panel")
	seed := fs.Int64("seed", defaultSeed, "seed the run's jobs are drawn from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "where the traced pass writes its report (default .bench_build/perfbench/trace-<workload>.json)")
	diff := fs.Bool("diff", false, "compare two traced reports (files or directories): perfbench -diff OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -diff takes two reports: OLD NEW")
			return 2
		}
		if err := runDiff(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be >= 1, got %d\n", *seconds)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "perfbench", "trace-"+w.name+".json")
	}
	res, err := bench(w, uint64(*seed), time.Duration(*seconds)*time.Second, *traced == 1, *traceOut, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs one workload end to end and returns the result line.
func bench(w workload, seed uint64, budget time.Duration, traced bool, traceOut string, out io.Writer) (resultLine, error) {
	g, err := newGate(seed == defaultSeed)
	if err != nil {
		return resultLine{}, err
	}
	h, err := newHostRef()
	if err != nil {
		return resultLine{}, err
	}
	defer h.close()
	var c *campaign
	var setups, fills []float64
	var spent time.Duration
	for len(setups) < setupReps || (spent < setupBudget && len(setups) < maxSetupReps) {
		c = nil
		runtime.GC()
		t0 := time.Now()
		c = newCampaign(w, seed)
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		fills = append(fills, float64(c.coldFill)/1e6)
	}
	heap := liveHeapMB()
	t := c.timed(budget, g, h, traced)
	heap = max(heap, liveHeapMB())
	c.recheck(t, g)

	e2e := []metric{
		{"sims_per_s", "1/s", t.segmentMedian(segment.simsPerS)},
		{"ns_per_sim_cycle", "ns", t.segmentMedian(segment.nsPerSimCycle)},
		{"allocs_per_cs", "1/cs", float64(t.mallocs) / float64(t.ops)},
		{"bytes_per_cs", "B/cs", float64(t.allocBytes) / float64(t.ops)},
		{"live_heap_mb", "MB", heap},
		{"setup_s", "s", median(setups) * t.refMedian() / refNominal},
	}
	fmt.Fprintf(out, "workload %s seed %d: %d rounds in %d segments, %d sims, %d critical sections, %.0f simulated Mcycles in %.2f s at %d workers\n",
		w.name, seed, t.rounds, len(t.segs), t.sims, t.ops, float64(t.cycles)/1e6, t.wall.Seconds(), workers)
	fmt.Fprintf(out, "host reference %.1f rounds/s (nominal %.0f); before normalizing: %.6g sims/s, %.6g ns/sim-cycle, setup %.6g s\n",
		t.refMedian(), refNominal, float64(t.sims)/t.wall.Seconds(), float64(t.jobHost.Nanoseconds())/float64(t.cycles), median(setups))
	report := e2e
	if traced {
		hits, misses := c.fills.Stats()
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		layers := []metric{
			{"harness.cold_fill_ms", "ms", median(fills)},
			{"harness.prefill_hit_rate", "fraction", hitRate},
			{"fleet.job_ms_p50", "ms", quantile(t.jobMs, 0.5)},
			{"fleet.job_ms_p90", "ms", quantile(t.jobMs, 0.9)},
			{"fleet.job_samples", "count", float64(len(t.jobMs))},
			{"fleet.occupancy_pct", "%", 100 * float64(t.jobHost) / (float64(t.wall) * workers)},
			{"host.ref_per_s", "1/s", t.refMedian()},
		}
		lm, err := tracedPass(c, t, g, traceOut, out)
		if err != nil {
			return resultLine{}, err
		}
		report = append(layers, lm...)
		for _, m := range e2e {
			fmt.Fprintf(out, "  (untraced) %-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	res := resultLine{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metricJSON{}}
	for _, m := range report {
		fmt.Fprintf(out, "  %-45s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	fmt.Fprintf(out, "  %-45s %14.6g fraction (%d of %d simulations)\n", "failed_frac", g.failedFrac(), g.failed, g.attempted)
	for _, e := range g.errs {
		fmt.Fprintln(out, "  FAILED", e)
	}
	return res, nil
}
