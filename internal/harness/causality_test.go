package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"elision/internal/htm"
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
	"elision/internal/trace"
)

// TestCausalityGolden is the issue's acceptance criterion on the seed §4
// lemming workload: fair-lock HLE (MCS and ticket) deterministically reports
// at least one serialization epoch with the lemming verdict, while opt-SLR
// reports zero fallback-rooted epochs on the identical workload.
func TestCausalityGolden(t *testing.T) {
	sc := TestScale()
	for _, tc := range []struct {
		scheme  SchemeID
		lock    LockID
		lemming bool
	}{
		{SchemeHLE, LockMCS, true},
		{SchemeHLE, LockTicketHLE, true},
		{SchemeOptSLR, LockMCS, false},
	} {
		_, _, _, eng, _ := FlightRun(sc.Section4Config(tc.scheme, tc.lock), causality.Config{}, flight.Config{})
		r := eng.Report()
		if tc.lemming {
			if len(r.Epochs) < 1 {
				t.Errorf("%s/%s: %d epochs, want >= 1", tc.scheme, tc.lock, len(r.Epochs))
			}
			if !r.Lemming {
				t.Errorf("%s/%s: lemming verdict false (serFrac=%.2f, inEpochSpec=%.2f)",
					tc.scheme, tc.lock, r.SerializedFraction(), r.InEpochSpecRatio())
			}
			if r.DepthQuantile(0.99) < 2 {
				t.Errorf("%s/%s: cascade depth p99 = %d, want a real chain", tc.scheme, tc.lock, r.DepthQuantile(0.99))
			}
		} else {
			if len(r.Epochs) != 0 {
				t.Errorf("%s/%s: %d fallback-rooted epochs, want 0 (first: %+v)",
					tc.scheme, tc.lock, len(r.Epochs), r.Epochs[0])
			}
			if r.Lemming {
				t.Errorf("%s/%s: lemming verdict true", tc.scheme, tc.lock)
			}
			// The bursts it does see must be demoted to strays, not missed.
			if r.StrayRoots == 0 {
				t.Errorf("%s/%s: no stray roots — engine saw no fallback acquisitions at all", tc.scheme, tc.lock)
			}
		}
	}
}

// TestCausalityDeterministic pins that the engine's full report is a pure
// function of the machine seed: two identical runs agree field-for-field.
func TestCausalityDeterministic(t *testing.T) {
	cfg := TestScale().Section4Config(SchemeHLE, LockMCS)
	_, _, _, a, _ := FlightRun(cfg, causality.Config{}, flight.Config{})
	_, _, _, b, _ := FlightRun(cfg, causality.Config{}, flight.Config{})
	if !reflect.DeepEqual(a.Report(), b.Report()) {
		t.Fatalf("reports diverged:\n%+v\n%+v", a.Report(), b.Report())
	}
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("causality edges diverged between identical runs")
	}
}

// TestCausalRunMatchesUnobserved extends the read-only-instrumentation
// invariant to the causality engine: attaching it must not perturb the run.
func TestCausalRunMatchesUnobserved(t *testing.T) {
	cfg := TestScale().Section4Config(SchemeHLE, LockMCS)
	plain := NewInstance(nil).Run(cfg)
	col := newCollector(cfg)
	causality.Attach(col, causality.Config{})
	res := NewInstance(nil).RunObserved(cfg, col, nil)
	if plain.Stats != res.Stats || plain.Cycles != res.Cycles {
		t.Fatalf("causal run diverged:\nplain  %+v (%d cycles)\ncausal %+v (%d cycles)",
			plain.Stats, plain.Cycles, res.Stats, res.Cycles)
	}
}

// TestCausalityFlowExport validates the Perfetto export with flow arrows
// appended: the output stays schema-valid and the cascade flows pair up by
// cat+id with the finish bound to the victim's aborting slice.
func TestCausalityFlowExport(t *testing.T) {
	sc := TestScale()
	_, _, tr, eng, _ := FlightRun(sc.Section4Config(SchemeHLE, LockMCS), causality.Config{}, flight.Config{})
	flows := eng.FlowEvents()
	if len(flows) == 0 {
		t.Fatal("lemming run produced no flow events")
	}
	var buf bytes.Buffer
	err := trace.WriteChromeTraceFlows(&buf, tr.Events(), func(arg int64) string {
		return htm.Cause(arg).String()
	}, flows)
	if err != nil {
		t.Fatal(err)
	}
	var objs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &objs); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	starts := map[string]bool{}
	finishes := map[string]bool{}
	for i, o := range objs {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := o[k]; !ok {
				t.Fatalf("event %d missing %q: %v", i, k, o)
			}
		}
		switch o["ph"] {
		case "s", "f":
			if o["cat"] != "causality" || o["id"] == "" {
				t.Fatalf("flow event %d lacks cat/id: %v", i, o)
			}
			id := o["id"].(string)
			if o["ph"] == "s" {
				starts[id] = true
			} else {
				finishes[id] = true
				if o["bp"] != "e" {
					t.Fatalf("flow finish %d not bound to enclosing slice: %v", i, o)
				}
			}
		}
	}
	if len(starts) == 0 || !reflect.DeepEqual(starts, finishes) {
		t.Fatalf("unpaired flows: %d starts, %d finishes", len(starts), len(finishes))
	}
}

// TestChromeTraceAuxRejoinSlices is the SCM satellite: the Perfetto export
// of an hle-scm run must show auxiliary-lock slices with speculative
// transactions committing inside them (the serialize-then-rejoin picture),
// and the aux slices must account for exactly the AuxDwell the collector
// recorded.
func TestChromeTraceAuxRejoinSlices(t *testing.T) {
	sc := TestScale()
	res, col, tr, _, _ := FlightRun(sc.Section4Config(SchemeHLESCM, LockMCS), causality.Config{}, flight.Config{})
	if res.Stats.AuxAcquires == 0 {
		t.Fatal("SCM run never used the auxiliary lock")
	}
	events := trace.ChromeTraceEvents(tr.Events(), func(arg int64) string {
		return htm.Cause(arg).String()
	})

	type slice struct {
		tid        int
		start, end uint64
	}
	type openSlice struct {
		name  string
		start uint64
	}
	var auxSlices, commitTx []slice
	open := map[int][]openSlice{}
	for _, e := range events {
		switch e.Ph {
		case "B":
			open[e.Tid] = append(open[e.Tid], openSlice{e.Name, e.Ts})
		case "E":
			st := open[e.Tid]
			if len(st) == 0 || st[len(st)-1].name != e.Name {
				t.Fatalf("unbalanced B/E for %q on tid %d", e.Name, e.Tid)
			}
			top := st[len(st)-1]
			open[e.Tid] = st[:len(st)-1]
			if e.Args["outcome"] == "truncated" {
				continue
			}
			switch e.Name {
			case "aux":
				auxSlices = append(auxSlices, slice{e.Tid, top.start, e.Ts})
			case "tx":
				if e.Args["outcome"] == "commit" {
					commitTx = append(commitTx, slice{e.Tid, top.start, e.Ts})
				}
			}
		}
	}

	if len(auxSlices) == 0 {
		t.Fatal("export has no aux slices")
	}
	// The aux slices must account for exactly the dwell the collector saw:
	// same number of completed serializations, same total cycles.
	var sliceSum uint64
	for _, s := range auxSlices {
		sliceSum += s.end - s.start
	}
	h := col.Reg.Histogram(obs.MetricAuxDwell, col.BaseLabels())
	if uint64(len(auxSlices)) != h.Count() || sliceSum != h.Sum() {
		t.Fatalf("aux slices %d totalling %d cycles, dwell histogram has %d samples totalling %d",
			len(auxSlices), sliceSum, h.Count(), h.Sum())
	}

	// Speculative rejoin: some committed transaction runs entirely inside an
	// aux slice on the same thread.
	rejoin := false
	for _, tx := range commitTx {
		for _, aux := range auxSlices {
			if tx.tid == aux.tid && tx.start >= aux.start && tx.end <= aux.end {
				rejoin = true
				break
			}
		}
		if rejoin {
			break
		}
	}
	if !rejoin {
		t.Fatalf("no committed transaction inside an aux slice (%d aux slices, %d commits)",
			len(auxSlices), len(commitTx))
	}
}
