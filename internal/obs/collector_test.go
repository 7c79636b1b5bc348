package obs

import (
	"strings"
	"testing"
)

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Observe(&Event{Kind: KindTxCommit, When: 1, ReadLines: 2, WriteLines: 3})
	c.Observe(&Event{Kind: KindTxAbort, When: 1, Cause: "conflict", ReadLines: 2, WriteLines: 3, ConflictLine: 4, ConflictTid: 5})
	c.Observe(&Event{Kind: KindOp, Start: 0, When: 100, Spec: true, Attempts: 1})
	c.SetGauge("run_cycles", 1)
	c.Attach(nil)
	c.SetLockLines([]int{1})
	c.Observe(&Event{Kind: KindLockAcquire, When: 1})
	c.Finish(10)
	if c.Sinks() != nil {
		t.Fatal("nil collector sinks")
	}
	if c.BaseLabels() != nil {
		t.Fatal("nil collector labels")
	}
	var sb strings.Builder
	c.WriteText(&sb, 5, nil)
	c.WriteCSV(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil collector wrote output: %q", sb.String())
	}
}

func TestCollectorFeedsAllSinks(t *testing.T) {
	c := NewCollector("hle", "mcs", 1000)
	c.Observe(&Event{Kind: KindTxCommit, When: 100, Tid: 0, ReadLines: 5, WriteLines: 2})
	c.Observe(&Event{Kind: KindTxAbort, When: 200, Tid: 1, Cause: "conflict", ReadLines: 3, WriteLines: 1, ConflictLine: 7, ConflictTid: 2})
	c.Observe(&Event{Kind: KindTxAbort, When: 300, Tid: 1, Cause: "capacity", ReadLines: 9, WriteLines: 9, ConflictLine: -1, ConflictTid: -1})
	c.Observe(&Event{Kind: KindOp, Start: 150, When: 400, Tid: 0, Spec: true, Attempts: 1})
	c.Observe(&Event{Kind: KindOp, Start: 500, When: 1500, Tid: 1, Attempts: 4, Aborts: 3, AuxUsed: true, AuxDwell: 4000})
	c.SetGauge("run_cycles", 1500)

	if got := c.Reg.Counter(MetricCommits, c.BaseLabels()).Value(); got != 1 {
		t.Fatalf("commits = %d", got)
	}
	if got := c.Reg.Counter(MetricAborts, c.BaseLabels().With("cause", "conflict")).Value(); got != 1 {
		t.Fatalf("conflict aborts = %d", got)
	}
	if got := c.Hot.TopN(1); len(got) != 1 || got[0].Line != 7 {
		t.Fatalf("hot lines = %+v", got)
	}
	w := c.Series.Windows()
	if len(w) != 2 || w[0].Ops != 1 || w[0].Commits != 1 || w[0].Aborts != 2 || w[1].Ops != 1 {
		t.Fatalf("series windows = %+v", w)
	}
	if got := c.Reg.Histogram(MetricAuxDwell, c.BaseLabels()).Count(); got != 1 {
		t.Fatalf("aux dwell samples = %d", got)
	}
	if got := c.Reg.Histogram(MetricLatency, c.BaseLabels().With("path", "nonspec")).Max(); got != 1000 {
		t.Fatalf("nonspec latency max = %d", got)
	}

	var txt strings.Builder
	c.WriteText(&txt, 8, nil)
	for _, want := range []string{
		"htm_aborts_total{scheme=hle,lock=mcs,cause=conflict}",
		"hot lines (1 conflict aborts attributed)",
		"time series (1000-cycle windows)",
	} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, txt.String())
		}
	}
	var csv strings.Builder
	c.WriteCSV(&csv)
	if !strings.Contains(csv.String(), "window_start,ops") {
		t.Fatal("CSV dump missing series table")
	}
}

// recordingSink keeps the kinds it observed.
type recordingSink struct{ kinds []Kind }

func (r *recordingSink) Observe(ev *Event) { r.kinds = append(r.kinds, ev.Kind) }

// TestCollectorForwardsToSinks: every event, including lock lines and run
// end, reaches each attached sink in attachment order, and the adaptive
// families exist only once an adaptive op has been seen.
func TestCollectorForwardsToSinks(t *testing.T) {
	c := NewCollector("adaptive-hle", "mcs", 0)
	a, b := &recordingSink{}, &recordingSink{}
	c.Attach(a)
	c.Attach(b)
	if got := c.Sinks(); len(got) != 2 || got[0] != Sink(a) || got[1] != Sink(b) {
		t.Fatalf("Sinks() = %v, want [a b]", got)
	}
	c.SetLockLines([]int{3})
	c.Observe(&Event{Kind: KindLockWait, When: 1})
	c.Observe(&Event{Kind: KindOp, When: 2, Attempts: 1})
	for _, m := range c.Reg.Snapshot() {
		if strings.HasPrefix(m.Name, "adaptive_") {
			t.Fatalf("non-adaptive op registered %s", m.Name)
		}
	}
	c.Observe(&Event{Kind: KindOp, When: 3, Attempts: 2, Forfeited: true, ForfeitEntered: true, ExhaustedClass: "busy"})
	c.Observe(&Event{Kind: KindOp, When: 4, Attempts: 2, ForfeitEntered: true, ExhaustedClass: "busy"})
	c.Finish(10)
	want := []Kind{KindLockLines, KindLockWait, KindOp, KindOp, KindOp, KindFinish}
	for _, s := range []*recordingSink{a, b} {
		if len(s.kinds) != len(want) {
			t.Fatalf("sink saw %v, want %v", s.kinds, want)
		}
		for i := range want {
			if s.kinds[i] != want[i] {
				t.Fatalf("sink saw %v, want %v", s.kinds, want)
			}
		}
	}
	base := c.BaseLabels()
	if got := c.Reg.Counter(MetricForfeitOps, base).Value(); got != 1 {
		t.Errorf("forfeit ops = %d, want 1", got)
	}
	if got := c.Reg.Counter(MetricBudgetExhausted, base.With("class", "busy")).Value(); got != 2 {
		t.Errorf("busy exhaustions = %d, want 2", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindTxBegin: "tx-begin", KindTxCommit: "commit", KindTxAbort: "abort",
		KindLockAcquire: "lock-acquire", KindLockRelease: "lock-release",
		KindAuxAcquire: "aux-acquire", KindAuxRelease: "aux-release",
		KindLockWait: "lock-wait", KindAuxWait: "aux-wait", KindOp: "op",
		KindLockLines: "lock-lines", KindFinish: "finish", Kind(99): "kind(99)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	// The swimlane kinds keep their numbers: trace digests hash them.
	if KindTxBegin != 1 || KindAuxRelease != 7 {
		t.Fatalf("swimlane kinds renumbered: begin %d, aux-release %d", KindTxBegin, KindAuxRelease)
	}
}
