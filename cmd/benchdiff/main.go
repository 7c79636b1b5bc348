// Command benchdiff is the repo's perf gate: it compares a freshly
// generated BENCH_simulator.json against a committed baseline with
// per-metric tolerances and exits non-zero on regression, so a slowdown
// fails CI instead of silently landing in the trajectory.
//
//	go run ./cmd/benchdiff -baseline BENCH_simulator.json -current new.json
//	go run ./cmd/benchdiff -baseline old.json -current new.json -json verdict.json
//	go run ./cmd/benchdiff -lint-prom metrics.prom      # validate an exposition file
//
// Host-time metrics (ns/op, allocs/op, campaign throughput, prefill hit
// rate) are gated with tolerances, since CI hosts are noisy. Simulated-work
// fingerprints (sim_cycles_per_op, sim_txns_per_op) are gated exactly: a
// perf-only change must not perturb simulated results, and a drift here
// means the change was not perf-only (override with -allow-sim-drift when
// the trajectory is deliberately reset).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"elision/internal/cli"
	"elision/internal/obs"
)

// errRegression marks a completed comparison that found a regression: the
// report was written, the process exits non-zero, but no usage error
// occurred.
var errRegression = errors.New("benchdiff: regression detected")

// Check is one gated metric comparison.
type Check struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Ratio is current/baseline for relative gates (0 when baseline is 0);
	// Delta is current-baseline for absolute gates.
	Ratio float64 `json:"ratio,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Limit restates the tolerance the check ran under.
	Limit string `json:"limit"`
	OK    bool   `json:"ok"`
}

// Verdict is the JSON document -json writes.
type Verdict struct {
	Schema   string  `json:"schema"`
	Baseline string  `json:"baseline"`
	Current  string  `json:"current"`
	OK       bool    `json:"ok"`
	Checks   []Check `json:"checks"`
}

// benchReport mirrors the cmd/bench JSON fields benchdiff gates on, so the
// two tools stay decoupled (bench owns the schema; benchdiff reads a
// compatible subset).
type benchReport struct {
	Schema    string `json:"schema"`
	Workloads []struct {
		Name           string  `json:"name"`
		NsPerOp        float64 `json:"ns_per_op"`
		AllocsPerOp    float64 `json:"allocs_per_op"`
		SimCyclesPerOp uint64  `json:"sim_cycles_per_op"`
		SimTxnsPerOp   uint64  `json:"sim_txns_per_op"`
	} `json:"workloads"`
	Campaign struct {
		SimsPerSec     float64 `json:"sims_per_sec"`
		TxnsPerSec     float64 `json:"txns_per_sec"`
		PrefillHitRate float64 `json:"prefill_hit_rate"`
	} `json:"campaign"`
	Flight struct {
		Ratio float64 `json:"ratio"`
	} `json:"flight"`
}

// tolerances carries the gate widths.
type tolerances struct {
	ns       float64 // relative: ns/op may grow by this fraction
	allocs   float64 // relative: allocs/op may grow by this fraction
	sims     float64 // relative: sims/sec may shrink by this fraction
	prefill  float64 // absolute: prefill hit rate may drop by this much
	flight   float64 // absolute cap on the flight-recorder overhead ratio
	simDrift bool    // allow simulated-work fingerprints to change
}

func loadReport(path string) (*benchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if rep.Schema != "elision-bench/v1" {
		return nil, fmt.Errorf("benchdiff: %s: unexpected schema %q", path, rep.Schema)
	}
	if len(rep.Workloads) == 0 {
		return nil, fmt.Errorf("benchdiff: %s: no workloads", path)
	}
	return &rep, nil
}

// relCheck gates current against baseline*(1+tol) (grow=true, for costs) or
// baseline*(1-tol) (grow=false, for throughputs).
func relCheck(workload, metric string, baseline, current, tol float64, grow bool) Check {
	c := Check{Workload: workload, Metric: metric, Baseline: baseline, Current: current}
	if baseline > 0 {
		c.Ratio = current / baseline
	}
	if grow {
		c.Limit = fmt.Sprintf("<= %.2fx", 1+tol)
		c.OK = baseline <= 0 || current <= baseline*(1+tol)
	} else {
		c.Limit = fmt.Sprintf(">= %.2fx", 1-tol)
		c.OK = baseline <= 0 || current >= baseline*(1-tol)
	}
	return c
}

// exactCheck gates a simulated-work fingerprint: equal or failed.
func exactCheck(workload, metric string, baseline, current uint64, allowDrift bool) Check {
	return Check{
		Workload: workload, Metric: metric,
		Baseline: float64(baseline), Current: float64(current),
		Delta: float64(current) - float64(baseline),
		Limit: "== baseline", OK: allowDrift || current == baseline,
	}
}

// diff runs every gate and assembles the verdict.
func diff(baselinePath, currentPath string, base, cur *benchReport, tol tolerances) Verdict {
	v := Verdict{Schema: "elision-benchdiff/v1", Baseline: baselinePath, Current: currentPath, OK: true}
	curByName := make(map[string]int, len(cur.Workloads))
	for i, w := range cur.Workloads {
		curByName[w.Name] = i
	}
	for _, bw := range base.Workloads {
		ci, ok := curByName[bw.Name]
		if !ok {
			v.Checks = append(v.Checks, Check{
				Workload: bw.Name, Metric: "present", Limit: "workload present in current", OK: false,
			})
			continue
		}
		cw := cur.Workloads[ci]
		v.Checks = append(v.Checks,
			relCheck(bw.Name, "ns_per_op", bw.NsPerOp, cw.NsPerOp, tol.ns, true),
			relCheck(bw.Name, "allocs_per_op", bw.AllocsPerOp, cw.AllocsPerOp, tol.allocs, true),
			exactCheck(bw.Name, "sim_cycles_per_op", bw.SimCyclesPerOp, cw.SimCyclesPerOp, tol.simDrift),
			exactCheck(bw.Name, "sim_txns_per_op", bw.SimTxnsPerOp, cw.SimTxnsPerOp, tol.simDrift),
		)
	}
	v.Checks = append(v.Checks,
		relCheck("campaign", "sims_per_sec", base.Campaign.SimsPerSec, cur.Campaign.SimsPerSec, tol.sims, false),
		relCheck("campaign", "txns_per_sec", base.Campaign.TxnsPerSec, cur.Campaign.TxnsPerSec, tol.sims, false),
	)
	pre := Check{
		Workload: "campaign", Metric: "prefill_hit_rate",
		Baseline: base.Campaign.PrefillHitRate, Current: cur.Campaign.PrefillHitRate,
		Delta: cur.Campaign.PrefillHitRate - base.Campaign.PrefillHitRate,
		Limit: fmt.Sprintf(">= baseline - %.2f", tol.prefill),
		OK:    cur.Campaign.PrefillHitRate >= base.Campaign.PrefillHitRate-tol.prefill,
	}
	v.Checks = append(v.Checks, pre)
	if cur.Flight.Ratio > 0 {
		// Gate the current run's flight-recorder overhead absolutely, not
		// against the baseline: the claim is "observed stays within tolerance
		// of unobserved", which holds or fails on the current host alone.
		v.Checks = append(v.Checks, Check{
			Workload: "flight", Metric: "overhead_ratio",
			Baseline: base.Flight.Ratio, Current: cur.Flight.Ratio,
			Limit: fmt.Sprintf("<= %.2fx unobserved", tol.flight),
			OK:    cur.Flight.Ratio <= tol.flight,
		})
	}
	for _, c := range v.Checks {
		if !c.OK {
			v.OK = false
		}
	}
	return v
}

// writeTable renders the verdict as an aligned human-readable table.
func writeTable(w io.Writer, v Verdict) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcurrent\tchange\tlimit\tverdict")
	for _, c := range v.Checks {
		change := "-"
		if c.Ratio > 0 {
			change = fmt.Sprintf("%.2fx", c.Ratio)
		} else if c.Delta != 0 {
			change = fmt.Sprintf("%+.3g", c.Delta)
		}
		verdict := "ok"
		if !c.OK {
			verdict = "REGRESSION"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\t%s\n",
			c.Workload, c.Metric, c.Baseline, c.Current, change, c.Limit, verdict)
	}
	tw.Flush()
	if v.OK {
		fmt.Fprintln(w, "benchdiff: ok")
	} else {
		fmt.Fprintln(w, "benchdiff: REGRESSION")
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errRegression) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baseline := fs.String("baseline", "", "committed BENCH_simulator.json to gate against")
	current := fs.String("current", "", "freshly generated bench JSON to check")
	jsonOut := fs.String("json", "", "write the verdict JSON here")
	tolNs := fs.Float64("tol-ns", 0.5, "allowed relative growth in ns_per_op (0.5 = +50%)")
	tolAllocs := fs.Float64("tol-allocs", 0.10, "allowed relative growth in allocs_per_op")
	tolSims := fs.Float64("tol-sims", 0.5, "allowed relative drop in campaign throughput")
	tolPrefill := fs.Float64("tol-prefill", 0.10, "allowed absolute drop in prefill hit rate")
	tolFlight := fs.Float64("tol-flight-ratio", 3.0, "cap on the flight-recorder overhead ratio (observed/unobserved host time; gated only when the current report carries the measurement)")
	allowDrift := fs.Bool("allow-sim-drift", false, "permit simulated-work fingerprints to change (trajectory reset)")
	lintProm := fs.String("lint-prom", "", "validate a Prometheus text-exposition file and exit (no diff)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("benchdiff: unexpected arguments %v", fs.Args())
	}

	if *lintProm != "" {
		f, err := os.Open(*lintProm)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := obs.LintPrometheus(f); err != nil {
			return fmt.Errorf("benchdiff: %s: %w", *lintProm, err)
		}
		fmt.Fprintf(stdout, "benchdiff: %s is a valid Prometheus exposition\n", *lintProm)
		return nil
	}

	if *baseline == "" || *current == "" {
		return errors.New("benchdiff: -baseline and -current are required (or use -lint-prom)")
	}
	for _, tol := range []struct {
		name string
		v    float64
	}{{"-tol-ns", *tolNs}, {"-tol-allocs", *tolAllocs}, {"-tol-sims", *tolSims}, {"-tol-prefill", *tolPrefill}, {"-tol-flight-ratio", *tolFlight}} {
		if tol.v < 0 {
			return fmt.Errorf("benchdiff: %s must be >= 0 (got %g)", tol.name, tol.v)
		}
	}

	base, err := loadReport(*baseline)
	if err != nil {
		return err
	}
	cur, err := loadReport(*current)
	if err != nil {
		return err
	}

	v := diff(*baseline, *current, base, cur, tolerances{
		ns: *tolNs, allocs: *tolAllocs, sims: *tolSims, prefill: *tolPrefill,
		flight: *tolFlight, simDrift: *allowDrift,
	})
	if *jsonOut != "" {
		err := cli.Write(*jsonOut, stdout, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		})
		if err != nil {
			return err
		}
	}
	if *jsonOut != "-" {
		writeTable(stdout, v)
	}
	if !v.OK {
		return errRegression
	}
	return nil
}
