package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDriverFidelity runs every round-0 job of every workload at the
// default seed through the driver, untraced and traced twice. The driver
// must reproduce the harness's fingerprint each time, the per-layer counts
// must repeat exactly across the two traced passes, and the self times
// must sum to the sim.run span, Machine.Run's host time timed on its own.
func TestDriverFidelity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := newCampaign(w, defaultSeed)
			g, err := newGate(true)
			if err != nil {
				t.Fatal(err)
			}
			tl := c.timed(time.Nanosecond, g, newTestRef(t), false)
			if g.failed != 0 {
				t.Fatalf("harness round 0 fails the gate: %v", g.errs)
			}
			rig := w.grid == nil
			for _, pt := range sample(c, tl, g) {
				un, err := drive(pt.cfg, false, rig)
				if err != nil {
					t.Fatal(err)
				}
				a, err := drive(pt.cfg, true, rig)
				if err != nil {
					t.Fatal(err)
				}
				b, err := drive(pt.cfg, true, rig)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []pointRun{un, a, b} {
					if fp := fingerprint(r.res); fp != pt.fp {
						t.Errorf("%s: driver fingerprint %016x, harness %016x", pt.j.id(), fp, pt.fp)
					}
				}
				if a.led.count != b.led.count {
					t.Errorf("%s: layer counts differ across traced passes:\n%v\n%v", pt.j.id(), a.led.count, b.led.count)
				}
				for _, r := range []pointRun{a, b} {
					var sum int64
					for _, v := range r.led.self {
						sum += v
					}
					// The ledger's first and last boundaries bracket the
					// separately timed Machine.Run, so a boundary missed at
					// either end leaves the sum off runNs by more than the
					// two timer reads in between.
					if sum < r.runNs || sum > r.runNs+spanSlack {
						t.Errorf("%s: self times sum to %d ns, Machine.Run took %d ns", pt.j.id(), sum, r.runNs)
					}
				}
			}
		})
	}
}

// spanSlack is how far the ledger's sim.run span may exceed Machine.Run's
// own timing: two timer reads, plus room for the host to preempt them.
const spanSlack = int64(time.Millisecond)

// TestTracedPassSeparation runs each workload briefly with -trace 1 and
// checks the designed separation between workloads, that the run is
// correct, and that tracing overhead and the timer calibration are
// reported. A second contend-write run at the same seed must give a ledger
// whose counts -diff finds unmoved.
func TestTracedPassSeparation(t *testing.T) {
	dir := t.TempDir()
	got := map[string]map[string]float64{}
	for _, w := range workloads {
		res, err := bench(w, defaultSeed, time.Second, true, filepath.Join(dir, "trace-"+w.name+".json"), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		got[w.name] = map[string]float64{}
		for k, m := range res.Metrics {
			got[w.name][k] = m.Value
		}
		for _, k := range []string{"tracing_overhead_x", "trace.boundary_ns", "sim.unit_handoff_ns", "htm.unit_abort_ns"} {
			if got[w.name][k] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, k, got[w.name][k])
			}
		}
	}
	sr, cw, dp := got["spec-read"], got["contend-write"], got["diagnose-panel"]
	for _, k := range []string{"htm.aborts_per_cs", "locks.fallbacks_per_cs"} {
		if cw[k] < 10*sr[k] {
			t.Errorf("%s: contend-write %v is not 10x spec-read %v", k, cw[k], sr[k])
		}
	}
	if sr["harness.cold_fill_ms"] <= cw["harness.cold_fill_ms"] || sr["harness.cold_fill_ms"] <= dp["harness.cold_fill_ms"] {
		t.Errorf("harness.cold_fill_ms is not largest on spec-read: %v, %v, %v",
			sr["harness.cold_fill_ms"], cw["harness.cold_fill_ms"], dp["harness.cold_fill_ms"])
	}
	// obs.events_per_cs is counted from the driver's tracer, so a workload
	// that delivered observer events would show them; obs.overhead_x is 0
	// by definition where no observers are attached.
	for _, k := range []string{"obs.overhead_x", "obs.events_per_cs"} {
		if sr[k] != 0 || cw[k] != 0 || dp[k] <= 0 {
			t.Errorf("%s: spec-read %v, contend-write %v, diagnose-panel %v; want 0, 0, > 0", k, sr[k], cw[k], dp[k])
		}
	}

	again := filepath.Join(t.TempDir(), "trace-contend-write.json")
	w, _ := findWorkload("contend-write")
	if _, err := bench(w, defaultSeed, time.Second, true, again, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runDiff(filepath.Join(dir, "trace-contend-write.json"), again, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "COUNT MOVED") || !strings.Contains(out.String(), "htm.abort") {
		t.Errorf("same code, same seed: diff should show every layer with no moved count:\n%s", out.String())
	}
}

// TestDiffFlagsMovedCounts checks -diff on a report whose counts differ.
func TestDiffFlagsMovedCounts(t *testing.T) {
	rep := traceReport{Schema: reportSchema, Workload: "contend-write", Seed: 1, CS: 100,
		Layers: []layerRow{{Layer: "core", SelfNs: 1000, Count: 100}, {Layer: "htm.tx", SelfNs: 5000, Count: 3000}}}
	moved := rep
	moved.Layers = []layerRow{{Layer: "core", SelfNs: 900, Count: 100}, {Layer: "htm.tx", SelfNs: 4000, Count: 2900}}
	dir := t.TempDir()
	write := func(name string, r traceReport) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out bytes.Buffer
	if err := runDiff(write("old.json", rep), write("new.json", moved), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	var coreLine, txLine string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(strings.TrimSpace(l), "core"):
			coreLine = l
		case strings.HasPrefix(strings.TrimSpace(l), "htm.tx"):
			txLine = l
		}
	}
	if strings.Contains(coreLine, "MOVED") || !strings.Contains(coreLine, "-1.0") {
		t.Errorf("core kept its count and lost 1 ns/cs: %q", coreLine)
	}
	if !strings.Contains(txLine, "COUNT MOVED") {
		t.Errorf("htm.tx count moved but is not flagged: %q", txLine)
	}
}

// TestRejectsBadFlags checks the command's usage errors exit 2 without a
// result line.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{},
		{"-workload", "spec-read", "-seconds", "0"},
		{"-workload", "spec-read", "-trace", "2"},
		{"-workload", "spec-read", "extra"},
		{"-diff", "only-one"},
		{"-bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want exit 2 and no output", args, code, out.String())
		}
	}
}
