package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"elision/internal/core"
	"elision/internal/harness"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
)

// reportSchema identifies the traced report layout -diff reads.
const reportSchema = "perfbench-trace/v1"

// layerRow is one layer's totals over a traced sample: its self host time
// and its count (spans opened; proc changes for sim.switch, unwound
// attempts for htm.abort, runs for sim.run).
type layerRow struct {
	Layer  string `json:"layer"`
	SelfNs int64  `json:"self_ns"`
	Count  uint64 `json:"count"`
}

// jobSpans is one traced job's ledger: the spans it recorded, aggregated
// per layer as they were recorded.
type jobSpans struct {
	Job    string     `json:"job"`
	Config string     `json:"config"`
	CS     uint64     `json:"critical_sections"`
	RunNs  int64      `json:"run_ns"`
	Layers []layerRow `json:"layers"`
}

// traceReport is what a traced run writes when it ends.
type traceReport struct {
	Schema   string                `json:"schema"`
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	CS       uint64                `json:"critical_sections"`
	Layers   []layerRow            `json:"layers"`
	Jobs     []jobSpans            `json:"jobs"`
	Metrics  map[string]metricJSON `json:"metrics"`
}

// samplePoint is one job of the traced sample with the fingerprint the
// harness produced for it.
type samplePoint struct {
	j   job
	cfg harness.DSConfig
	fp  uint64
}

// sample picks the traced sample: round 0 of the timed phase. For
// diagnose-panel that is one panel, whose points are re-run once through
// harness.FlightRun, the call DiagnoseRollup makes, for their fingerprints.
func sample(c *campaign, t tally, g *gate) []samplePoint {
	kr := t.kept[0]
	if c.w.grid != nil {
		pts := make([]samplePoint, len(kr.jobs))
		for i, j := range kr.jobs {
			pts[i] = samplePoint{j: j, cfg: j.cfg, fp: kr.fps[i]}
		}
		return pts
	}
	var pts []samplePoint
	for i, p := range harness.DefaultDiagnosePanel() {
		cfg := kr.jobs[0].sc.Section4Config(p.Scheme, p.Lock)
		res, _, _, _, _ := harness.FlightRun(cfg, causality.Config{}, flight.Config{MaxChains: -1})
		g.attempted++
		pts = append(pts, samplePoint{j: job{round: 0, idx: i}, cfg: cfg, fp: fingerprint(res)})
	}
	return pts
}

// tracedPass re-executes the sample through the driver, untraced and
// traced, checks the driver against the harness, and returns the
// per-layer metrics. The report with every job's ledger is written to path.
func tracedPass(c *campaign, t tally, g *gate, path string, out io.Writer) ([]metric, error) {
	rig := c.w.grid == nil
	pts := sample(c, t, g)
	var plainNs, untracedNs, tracedNs int64
	var cs, events uint64
	var stats core.Stats
	var tot [numLayers]int64
	var cnt [numLayers]uint64
	rep := traceReport{Schema: reportSchema, Workload: c.w.name, Seed: c.js.seed}
	check := func(pt samplePoint, pr pointRun, err error, what string) bool {
		g.attempted++
		switch {
		case err != nil:
			g.fail(1, fmt.Sprintf("%s/%s %s: %v", c.w.name, pt.j.id(), what, err))
		case fingerprint(pr.res) != pt.fp:
			g.fail(1, fmt.Sprintf("%s/%s %s: driver fingerprint %016x differs from the harness's %016x",
				c.w.name, pt.j.id(), what, fingerprint(pr.res), pt.fp))
		default:
			return true
		}
		return false
	}
	for _, pt := range pts {
		un, err := drive(pt.cfg, false, rig)
		if !check(pt, un, err, "untraced driver") {
			continue
		}
		var plain pointRun
		if rig {
			// The observer rig's cost: the same point with no observers.
			plain, err = drive(pt.cfg, false, false)
			if !check(pt, plain, err, "unobserved driver") {
				continue
			}
		}
		tr, err := drive(pt.cfg, true, rig)
		if !check(pt, tr, err, "traced driver") {
			continue
		}
		plainNs += plain.runNs
		events += uint64(un.events)
		untracedNs += un.runNs
		tracedNs += tr.runNs
		cs += tr.res.Stats.Ops
		stats.Merge(tr.res.Stats)
		js := jobSpans{Job: pt.j.id(), Config: fmt.Sprintf("%+v", pt.cfg), CS: tr.res.Stats.Ops, RunNs: tr.runNs}
		for i := layer(0); i < numLayers; i++ {
			tot[i] += tr.led.self[i]
			cnt[i] += tr.led.count[i]
			js.Layers = append(js.Layers, layerRow{Layer: layerNames[i], SelfNs: tr.led.self[i], Count: tr.led.count[i]})
		}
		cnt[laySim]++
		js.Layers[laySim].Count = 1
		rep.Jobs = append(rep.Jobs, js)
	}
	if cs == 0 {
		return nil, fmt.Errorf("traced pass: no sample job reproduced the harness")
	}
	per := func(v float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	// Without observers there is no observed run to compare, so the
	// overhead is 0.
	obsOverhead := 0.0
	if rig {
		obsOverhead = float64(untracedNs) / float64(plainNs)
	}
	ms := []metric{
		{"htm.tx_accesses_per_cs", "1/cs", per(float64(cnt[layTx]), cs)},
		{"htm.tx_access_ns", "ns", per(float64(tot[layTx]), cnt[layTx])},
		{"htm.aborts_per_cs", "1/cs", per(float64(stats.Aborts), cs)},
		{"htm.unwinds_per_cs", "1/cs", per(float64(cnt[layAbort]), cs)},
		{"htm.abort_ns", "ns", per(float64(tot[layAbort]), cnt[layAbort])},
		{"htm.nt_accesses_per_cs", "1/cs", per(float64(cnt[layNT]), cs)},
		{"htm.nt_access_ns", "ns", per(float64(tot[layNT]), cnt[layNT])},
		{"locks.fallbacks_per_cs", "1/cs", per(float64(stats.NonSpec), cs)},
		{"locks.aux_per_cs", "1/cs", per(float64(stats.AuxAcquires), cs)},
		{"sim.switches_per_cs", "1/cs", per(float64(cnt[laySwitch]), cs)},
		{"sim.switch_ns", "ns", per(float64(tot[laySwitch]), cnt[laySwitch])},
		{"sim.run_self_ns_per_cs", "ns/cs", per(float64(tot[laySim]), cs)},
		{"core.attempts_per_cs", "1/cs", per(float64(stats.Attempts), cs)},
		{"core.self_ns_per_cs", "ns/cs", per(float64(tot[layCore]), cs)},
		{"rbtree.self_ns_per_attempt", "ns", per(float64(tot[layTree]), cnt[layTree])},
		{"hashtable.self_ns_per_attempt", "ns", per(float64(tot[layHash]), cnt[layHash])},
		{"obs.overhead_x", "x", obsOverhead},
		{"obs.events_per_cs", "1/cs", per(float64(events), cs)},
		{"tracing_overhead_x", "x", float64(tracedNs) / float64(untracedNs)},
		{"trace.boundary_ns", "ns", boundaryCost()},
		{"trace.sample_jobs", "count", float64(len(rep.Jobs))},
		{"harness.job_setup_pct", "%", jobSetupPct(c, pts)},
	}
	ms = append(ms, unitCosts()...)

	rep.CS = cs
	for i := layer(0); i < numLayers; i++ {
		rep.Layers = append(rep.Layers, layerRow{Layer: layerNames[i], SelfNs: tot[i], Count: cnt[i]})
	}
	rep.Metrics = map[string]metricJSON{}
	for _, m := range ms {
		rep.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	if err := writeReport(path, rep); err != nil {
		return nil, fmt.Errorf("write traced report: %w", err)
	}
	fmt.Fprintf(out, "traced pass: %d jobs, %d critical sections; ledger in %s\n", len(rep.Jobs), cs, path)
	writeLedger(out, rep)
	return ms, nil
}

// writeLedger prints a report's per-layer self time per critical section.
func writeLedger(out io.Writer, rep traceReport) {
	var total int64
	for _, r := range rep.Layers {
		total += r.SelfNs
	}
	fmt.Fprintf(out, "  %-12s %12s %7s %14s\n", "layer", "self ns/cs", "share", "count/cs")
	for _, r := range rep.Layers {
		fmt.Fprintf(out, "  %-12s %12.1f %6.1f%% %14.4f\n", r.Layer,
			float64(r.SelfNs)/float64(rep.CS), 100*float64(r.SelfNs)/float64(total), float64(r.Count)/float64(rep.CS))
	}
}

func writeReport(path string, rep traceReport) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// jobSetupPct is the share of a job's host time that goes to per-job
// set-up rather than simulation. It runs the sample's points as the timed
// phase does (on a pooled instance; for the panel, through FlightRun as
// DiagnoseRollup does) at their own budgets and again at a one-cycle
// budget, which pays the same set-up (machine and memory reset, prefill
// restore or fill, lock and scheme construction) and simulates almost
// nothing, and returns the one-cycle time over the full time in percent.
func jobSetupPct(c *campaign, pts []samplePoint) float64 {
	run := func(cfg harness.DSConfig) time.Duration {
		t0 := time.Now()
		if c.w.grid == nil {
			harness.FlightRun(cfg, causality.Config{}, flight.Config{MaxChains: -1})
		} else {
			c.pool[0].Run(cfg)
		}
		return time.Since(t0)
	}
	var full, setup time.Duration
	for _, pt := range pts {
		full += run(pt.cfg)
		one := pt.cfg
		one.BudgetCycles = 1
		setup += run(one)
	}
	return 100 * setup.Seconds() / full.Seconds()
}

// boundaryCost calibrates the ledger: host ns per span boundary, measured
// on open/close pairs that enclose no work.
func boundaryCost() float64 {
	const n = 1 << 20
	l := newLedger(1)
	l.start()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.open(0, layTx)
		l.close(0)
	}
	return float64(time.Since(t0).Nanoseconds()) / (2 * n)
}
