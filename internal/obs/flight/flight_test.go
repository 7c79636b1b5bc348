package flight

import (
	"strings"
	"testing"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/obs"
)

// emit feeds col one payload-free event of kind k by tid.
func emit(col *obs.Collector, k obs.Kind, when uint64, tid int) {
	col.Observe(&obs.Event{Kind: k, When: when, Tid: tid})
}

// feed drives one synthetic chain through a recorder: a speculative attempt
// that aborts on a conflict, a lock-wait/acquire/release fallback, sealed
// with a KindOp event.
func feedFallbackChain(col *obs.Collector, tid int, base uint64) {
	emit(col, obs.KindTxBegin, base+10, tid)
	col.Observe(&obs.Event{Kind: obs.KindTxAbort, When: base + 40, Tid: tid, Cause: "conflict", Arg: int64(htm.CauseConflict), ConflictLine: 7, ConflictTid: 1})
	emit(col, obs.KindLockWait, base+45, tid)
	emit(col, obs.KindLockAcquire, base+65, tid)
	emit(col, obs.KindLockRelease, base+95, tid)
	col.Observe(&obs.Event{
		Kind: obs.KindOp, Start: base, When: base + 100, Tid: tid,
		Spec: false, Attempts: 2, Aborts: 1,
	})
}

func TestRecorderChainAccounting(t *testing.T) {
	col := obs.NewCollector("hle", "mcs", 0)
	rec := Attach(col, Config{})
	feedFallbackChain(col, 3, 1000)
	col.Finish(2000)

	if rec.Sealed() != 1 {
		t.Fatalf("Sealed = %d, want 1", rec.Sealed())
	}
	c := rec.Chain("t3#0")
	if c == nil {
		t.Fatalf("chain t3#0 not retained; chains: %v", rec.Chains())
	}
	if c.Span() != 100 || c.Attempts != 2 || c.Aborts != 1 || c.Spec {
		t.Fatalf("chain facts wrong: %+v", c)
	}

	var acct [numBuckets]uint64
	rec.account(c, c.Events, &acct)
	if got := acct[bucketWastedBase+int(core.ClassConflict)]; got != 30 {
		t.Errorf("wasted-conflict = %d, want 30 (tx 10..40)", got)
	}
	if got := acct[bucketLockWait]; got != 20 {
		t.Errorf("lock-wait = %d, want 20 (45..65)", got)
	}
	if got := acct[bucketLockDwell]; got != 30 {
		t.Errorf("lock-dwell = %d, want 30 (65..95)", got)
	}
	// Slack: 100 - 30 - 20 - 30 = 20 (pre-tx entry + post-release exit).
	if got := acct[bucketSlack]; got != 20 {
		t.Errorf("slack = %d, want 20", got)
	}
	var sum uint64
	for _, v := range acct {
		sum += v
	}
	if sum != c.Span() {
		t.Errorf("partition sums to %d, want the chain span %d", sum, c.Span())
	}
}

func TestRecorderForfeitBuckets(t *testing.T) {
	col := obs.NewCollector("adaptive-slr", "mcs", 0)
	rec := Attach(col, Config{})
	// A forfeited op: straight to the lock, no speculation.
	emit(col, obs.KindLockWait, 110, 0)
	emit(col, obs.KindLockAcquire, 130, 0)
	emit(col, obs.KindLockRelease, 180, 0)
	col.Observe(&obs.Event{
		Kind: obs.KindOp, Start: 100, When: 190, Tid: 0,
		Spec: false, Attempts: 1, Forfeited: true,
	})
	col.Finish(500)

	c := rec.Chain("t0#0")
	if c == nil {
		t.Fatal("forfeited chain not retained")
	}
	var acct [numBuckets]uint64
	rec.account(c, c.Events, &acct)
	if acct[bucketForfeitWait] != 20 || acct[bucketForfeitDwell] != 50 {
		t.Errorf("forfeit wait/dwell = %d/%d, want 20/50", acct[bucketForfeitWait], acct[bucketForfeitDwell])
	}
	if acct[bucketLockWait] != 0 || acct[bucketLockDwell] != 0 {
		t.Errorf("forfeited chain leaked into lock-wait/dwell: %v", acct)
	}
}

func TestRecorderRegistryFold(t *testing.T) {
	col := obs.NewCollector("hle", "mcs", 0)
	Attach(col, Config{})
	feedFallbackChain(col, 0, 0)
	feedFallbackChain(col, 1, 5000)
	col.Finish(6000)

	snap := map[string]int64{}
	for _, m := range col.Reg.Snapshot() {
		snap[m.Name+m.Labels] = m.Value
	}
	find := func(name, sub string) int64 {
		for k, v := range snap {
			if strings.HasPrefix(k, name) && strings.Contains(k, sub) {
				return v
			}
		}
		t.Fatalf("metric %s (%s) not in registry: %v", name, sub, snap)
		return 0
	}
	if got := find(MetricChains, `path=nonspec`); got != 2 {
		t.Errorf("flight_chains_total nonspec = %v, want 2", got)
	}
	if got := find(MetricCycles, `bucket=wasted-conflict`); got != 60 {
		t.Errorf("wasted-conflict cycles = %v, want 60", got)
	}
	if got := find(MetricAborts, `class=conflict`); got != 2 {
		t.Errorf("flight_aborts_total conflict = %v, want 2", got)
	}

	// The flight families must fold byte-identically through Registry.Merge
	// (the rollup path): merging two copies doubles every counter.
	merged := obs.NewRegistry()
	merged.Merge(col.Reg)
	merged.Merge(col.Reg)
	for _, m := range merged.Snapshot() {
		if !strings.HasPrefix(m.Name, "flight_") || m.Kind != "counter" {
			continue
		}
		if want := 2 * snap[m.Name+m.Labels]; m.Value != want {
			t.Errorf("merged %s%s = %v, want %v", m.Name, m.Labels, m.Value, want)
		}
	}
}

func TestRecorderRetentionCap(t *testing.T) {
	col := obs.NewCollector("hle", "mcs", 0)
	rec := Attach(col, Config{MaxChains: 1})
	feedFallbackChain(col, 0, 0)
	feedFallbackChain(col, 0, 5000)
	col.Finish(6000)

	if len(rec.Chains()) != 1 || rec.Sealed() != 2 {
		t.Fatalf("retained %d / sealed %d, want 1 / 2", len(rec.Chains()), rec.Sealed())
	}
	var truncated int64
	for _, m := range col.Reg.Snapshot() {
		if m.Name == MetricTruncated {
			truncated = m.Value
		}
	}
	if truncated != 1 {
		t.Fatalf("flight_chains_truncated_total = %v, want 1", truncated)
	}
}

func TestRecorderSharesCollectorWithObserver(t *testing.T) {
	col := obs.NewCollector("hle", "mcs", 0)
	probe := &countingSink{}
	col.Attach(probe)
	rec := Attach(col, Config{})
	emit(col, obs.KindTxBegin, 5, 0)
	col.Observe(&obs.Event{Kind: obs.KindTxCommit, When: 30, Tid: 0, ReadLines: 1, WriteLines: 1})
	col.Observe(&obs.Event{Kind: obs.KindOp, Start: 0, When: 40, Tid: 0, Spec: true, Attempts: 1})
	col.Finish(100)

	if probe.commits != 1 {
		t.Errorf("pre-attached sink lost the stream: commits = %d", probe.commits)
	}
	if rec.Sealed() != 1 {
		t.Errorf("recorder missed the sealed chain: %d", rec.Sealed())
	}
	var chains int64
	for _, m := range col.Reg.Snapshot() {
		if m.Name == MetricChains && strings.Contains(m.Labels, `path=spec`) {
			chains = m.Value
		}
	}
	if chains != 1 {
		t.Errorf("flight_chains_total spec = %v, want 1", chains)
	}
}

func TestChromeTraceEventsBalance(t *testing.T) {
	col := obs.NewCollector("hle", "mcs", 0)
	rec := Attach(col, Config{})
	feedFallbackChain(col, 2, 100)
	col.Finish(1000)
	c := rec.Chain("t2#0")
	if c == nil {
		t.Fatal("chain not retained")
	}
	evs := ChromeTraceEvents(c)
	depth := 0
	for _, ev := range evs {
		switch ev.Ph {
		case "B":
			depth++
		case "E":
			depth--
			if depth < 0 {
				t.Fatalf("unbalanced E at ts=%d", ev.Ts)
			}
		}
	}
	if depth != 0 {
		t.Fatalf("trace leaves %d open slice(s)", depth)
	}
}

type countingSink struct{ commits int }

func (c *countingSink) Observe(ev *obs.Event) {
	if ev.Kind == obs.KindTxCommit {
		c.commits++
	}
}
