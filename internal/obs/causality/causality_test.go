package causality_test

import (
	"strings"
	"testing"

	"elision/internal/obs"
	"elision/internal/obs/causality"
)

const (
	lockLine = 100
	dataLine = 200
)

// flAbort is a fallback-rooted abort: aborter's non-transactional access to
// the lock line doomed tid's transaction.
func flAbort(when uint64, tid, aborter int) *obs.Event {
	return &obs.Event{
		Kind: obs.KindTxAbort, When: when, Tid: tid, Cause: "conflict",
		ConflictLine: lockLine, ConflictTid: aborter, ConflictNT: true,
		ConflictWhen: when - 10,
	}
}

// specAbort is ordinary tx-vs-tx contention on a data line.
func specAbort(when uint64, tid, aborter int) *obs.Event {
	return &obs.Event{
		Kind: obs.KindTxAbort, When: when, Tid: tid, Cause: "conflict",
		ConflictLine: dataLine, ConflictTid: aborter, ConflictNT: false,
		ConflictWhen: when - 10,
	}
}

// op is a completed critical section by tid.
func op(when uint64, tid int, spec, auxUsed bool) *obs.Event {
	return &obs.Event{Kind: obs.KindOp, When: when, Tid: tid, Spec: spec, AuxUsed: auxUsed}
}

// finish ends the run at totalCycles.
func finish(totalCycles uint64) *obs.Event {
	return &obs.Event{Kind: obs.KindFinish, When: totalCycles}
}

func newEngine(cfg causality.Config) *causality.Engine {
	e := causality.New(cfg)
	e.Observe(&obs.Event{Kind: obs.KindLockLines, Lines: []int{lockLine}})
	return e
}

func TestClassification(t *testing.T) {
	e := newEngine(causality.Config{})
	e.Observe(flAbort(1000, 1, 9))
	e.Observe(&obs.Event{Kind: obs.KindTxAbort, // NT access on a data line: the holder's body.
		When: 1100, Tid: 2, Cause: "conflict",
		ConflictLine: dataLine, ConflictTid: 9, ConflictNT: true, ConflictWhen: 1090,
	})
	e.Observe(specAbort(1200, 3, 4))
	e.Observe(&obs.Event{Kind: obs.KindTxAbort, When: 1300, Tid: 5, Cause: "capacity", ConflictLine: -1, ConflictTid: -1})
	e.Observe(&obs.Event{Kind: obs.KindTxAbort, // conflict without an identified aborter
		When: 1400, Tid: 6, Cause: "conflict", ConflictLine: -1, ConflictTid: -1,
	})
	e.Observe(finish(10_000))

	r := e.Report()
	want := map[string]uint64{
		causality.ClassFallbackLock: 1,
		causality.ClassFallbackData: 1,
		causality.ClassSpecConflict: 1,
		causality.ClassOther:        2,
	}
	for cl, n := range want {
		if r.AbortsByClass[cl] != n {
			t.Fatalf("class %s = %d, want %d (all: %v)", cl, r.AbortsByClass[cl], n, r.AbortsByClass)
		}
	}
}

// TestEpochChainPromotion builds the minimal self-sustaining cascade: a root
// acquire dooms a victim, the victim's own fallback acquire dooms the next,
// and so on — each link a chained root because the aborter was tainted.
func TestEpochChainPromotion(t *testing.T) {
	e := newEngine(causality.Config{})
	e.Observe(flAbort(1000, 1, 9))       // root: depth[9]=0, victim 1 at depth 1
	e.Observe(op(1500, 9, false, false)) // the root's op completes non-speculatively
	e.Observe(flAbort(2000, 2, 1))       // chained: 1 was a victim, now dooms 2 (depth 2)
	e.Observe(op(2500, 1, false, false))
	e.Observe(flAbort(3000, 3, 2)) // chained: depth 3
	e.Observe(finish(4000))

	r := e.Report()
	if len(r.Epochs) != 1 || r.StrayRoots != 0 {
		t.Fatalf("epochs=%d stray=%d, want 1/0", len(r.Epochs), r.StrayRoots)
	}
	ep := r.Epochs[0]
	if ep.Start != 990 || ep.End != 3000 {
		t.Fatalf("epoch [%d,%d], want [990,3000] (start = rooting access clock)", ep.Start, ep.End)
	}
	if ep.Aborts != 3 || ep.ChainedRoots != 2 || ep.MaxDepth != 3 {
		t.Fatalf("epoch %+v, want 3 aborts, 2 chained roots, depth 3", ep)
	}
	if ep.Ops != 2 || ep.SpecOps != 0 {
		t.Fatalf("epoch ops %d/%d spec, want 2/0", ep.Ops, ep.SpecOps)
	}
	// 2010 of 4000 cycles serialized, nothing committed speculatively inside.
	if !r.Lemming {
		t.Fatalf("lemming = false for a serialized chained cascade: serFrac=%.2f inEpochSpec=%.2f",
			r.SerializedFraction(), r.InEpochSpecRatio())
	}
	if got := r.Verdict("hle", "mcs"); !strings.Contains(got, "lemming detected: hle over mcs") {
		t.Fatalf("verdict = %q", got)
	}
	if r.DepthQuantile(0.5) != 3 || r.DepthQuantile(0.99) != 3 || r.MeanDepth() != 3 {
		t.Fatalf("depth stats p50=%d p99=%d mean=%.1f, want 3",
			r.DepthQuantile(0.5), r.DepthQuantile(0.99), r.MeanDepth())
	}
}

// TestStarBurstStaysStray is the opt-SLR shape: one real acquire dooms a star
// of speculators who all resume speculating. Plenty of aborts, no chained
// root — must not be promoted to an epoch.
func TestStarBurstStaysStray(t *testing.T) {
	e := newEngine(causality.Config{})
	e.Observe(flAbort(1000, 1, 9))
	e.Observe(flAbort(1010, 2, 9))
	e.Observe(flAbort(1020, 3, 9))
	e.Observe(flAbort(1030, 4, 9)) // all doomed by untainted 9: chained = 0
	e.Observe(finish(2000))

	r := e.Report()
	if len(r.Epochs) != 0 || r.StrayRoots != 1 {
		t.Fatalf("epochs=%d stray=%d, want 0/1 (star burst has no chained roots)",
			len(r.Epochs), r.StrayRoots)
	}
	if r.Lemming {
		t.Fatal("star burst must not be a lemming verdict")
	}
	if got := r.Verdict("opt-slr", "mcs"); !strings.Contains(got, "no cascade: opt-slr over mcs, 0 fallback-rooted epochs") {
		t.Fatalf("verdict = %q", got)
	}
}

// TestChainedFractionDemotion: chained roots above MinChained but diluted far
// below ChainedFraction by background spec conflicts stay stray.
func TestChainedFractionDemotion(t *testing.T) {
	e := newEngine(causality.Config{}) // ChainedFraction 0.15
	e.Observe(flAbort(1000, 1, 9))
	for i := 0; i < 19; i++ { // 19 spec conflicts inside the open epoch
		e.Observe(specAbort(1100+uint64(i), 20+i, 40+i))
	}
	e.Observe(flAbort(2000, 2, 1)) // chained (1 was a victim)
	e.Observe(flAbort(2100, 3, 2)) // chained
	e.Observe(finish(3000))

	r := e.Report()
	// 22 aborts, 2 chained: 0.09 < 0.15 even though 2 >= MinChained.
	if len(r.Epochs) != 0 || r.StrayRoots != 1 {
		t.Fatalf("epochs=%d stray=%d, want 0/1 (chained fraction 2/22 below threshold)",
			len(r.Epochs), r.StrayRoots)
	}
}

// TestSpecConflictsDoNotExtend: only fallback evidence keeps an epoch alive;
// a trickle of spec conflicts within the gap must not stop it from closing.
func TestSpecConflictsDoNotExtend(t *testing.T) {
	e := newEngine(causality.Config{GapCycles: 1000})
	e.Observe(flAbort(1000, 1, 9))   // opens; last = 1000
	e.Observe(specAbort(1800, 2, 3)) // counted, but last stays 1000
	e.Observe(flAbort(2500, 4, 1))   // 2500-1000 > gap: closes first, re-roots
	e.Observe(finish(10_000))

	r := e.Report()
	// Both intervals die as strays (1-2 aborts, chained short), proving the
	// spec conflict at 1800 did not bridge the gap.
	if len(r.Epochs) != 0 || r.StrayRoots != 2 {
		t.Fatalf("epochs=%d stray=%d, want 0/2 (spec conflict must not extend)",
			len(r.Epochs), r.StrayRoots)
	}
}

// TestMainLockActivityExtends: lock-protocol transitions are fallback
// evidence and do bridge gaps (the queue draining keeps the epoch alive).
func TestMainLockActivityExtends(t *testing.T) {
	e := newEngine(causality.Config{GapCycles: 1000})
	e.Observe(flAbort(1000, 1, 9))
	e.Observe(&obs.Event{Kind: obs.KindLockRelease, When: 1900, Tid: 9}) // extends to 1900
	e.Observe(flAbort(2500, 2, 1))                                       // within gap of 1900: chained
	e.Observe(&obs.Event{Kind: obs.KindLockAcquire, When: 3000, Tid: 1})
	e.Observe(flAbort(3800, 3, 2)) // chained
	e.Observe(finish(4000))

	r := e.Report()
	if len(r.Epochs) != 1 {
		t.Fatalf("epochs=%d stray=%d, want 1 epoch (lock activity bridges gaps)",
			len(r.Epochs), r.StrayRoots)
	}
	if ep := r.Epochs[0]; ep.ChainedRoots != 2 || ep.End != 3800 {
		t.Fatalf("epoch %+v, want 2 chained roots ending at 3800", ep)
	}

	// Aux-lock transitions are not fallback evidence: same shape with Aux
	// events must close at the gap.
	e2 := newEngine(causality.Config{GapCycles: 1000})
	e2.Observe(flAbort(1000, 1, 9))
	e2.Observe(&obs.Event{Kind: obs.KindAuxAcquire, When: 1900, Tid: 9})
	e2.Observe(flAbort(2500, 2, 1)) // 2500-1000 > gap: prior interval closed
	e2.Observe(finish(4000))
	if r2 := e2.Report(); len(r2.Epochs) != 0 || r2.StrayRoots != 2 {
		t.Fatalf("aux-extended epochs=%d stray=%d, want 0/2", len(r2.Epochs), r2.StrayRoots)
	}
}

// TestCommitClearsTaint: a speculative commit is the cascade exit — the
// thread's depth resets, so its later acquires root fresh rather than chain.
func TestCommitClearsTaint(t *testing.T) {
	e := newEngine(causality.Config{})
	e.Observe(flAbort(1000, 1, 9))                                    // depth[1] = 1
	e.Observe(&obs.Event{Kind: obs.KindTxCommit, When: 1500, Tid: 1}) // 1 escapes speculatively
	e.Observe(flAbort(2000, 2, 1))                                    // 1 dooms 2: NOT chained, depth[2] = 1
	e.Observe(flAbort(2500, 3, 2))                                    // chained once
	e.Observe(finish(3000))

	r := e.Report()
	if len(r.Epochs) != 0 || r.StrayRoots != 1 {
		t.Fatalf("epochs=%d stray=%d, want 0/1: commit must clear taint, leaving 1 chained root",
			len(r.Epochs), r.StrayRoots)
	}
	edges := e.Edges()
	if len(edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(edges))
	}
	if edges[1].Depth != 1 {
		t.Fatalf("post-commit victim depth = %d, want 1 (aborter's taint cleared)", edges[1].Depth)
	}
	if edges[2].Depth != 2 {
		t.Fatalf("chained victim depth = %d, want 2", edges[2].Depth)
	}
}

// TestInEpochSpecRatioGatesVerdict is the TTAS shape: a long epoch whose ops
// still mostly commit speculatively is "cascades without collapse", not
// lemming.
func TestInEpochSpecRatioGatesVerdict(t *testing.T) {
	e := newEngine(causality.Config{})
	e.Observe(flAbort(1000, 1, 9))
	e.Observe(flAbort(1500, 2, 1))
	e.Observe(flAbort(2000, 3, 2))
	for i := uint64(0); i < 10; i++ { // speculation keeps succeeding inside
		e.Observe(op(1100+100*i, 5, true, false))
	}
	e.Observe(finish(2500))

	r := e.Report()
	if len(r.Epochs) != 1 {
		t.Fatalf("epochs = %d, want 1", len(r.Epochs))
	}
	if r.SerializedFraction() < 0.25 {
		t.Fatalf("serialized fraction %.2f, test needs >= 0.25", r.SerializedFraction())
	}
	if r.Lemming {
		t.Fatal("healthy in-epoch speculation must veto the lemming verdict")
	}
	if got := r.Verdict("hle", "ttas"); !strings.Contains(got, "cascades without collapse: hle over ttas") {
		t.Fatalf("verdict = %q", got)
	}
}

func TestAuxRejoinRate(t *testing.T) {
	e := newEngine(causality.Config{})
	e.Observe(op(100, 0, true, true))  // serialized via aux, still committed spec
	e.Observe(op(200, 1, false, true)) // serialized and gave up speculation
	e.Observe(op(300, 2, true, false)) // never used aux
	e.Observe(finish(1000))
	r := e.Report()
	if r.AuxOps != 2 || r.AuxRejoins != 1 {
		t.Fatalf("aux ops %d rejoins %d, want 2/1", r.AuxOps, r.AuxRejoins)
	}
	if got := r.AuxRejoinRate(); got != 0.5 {
		t.Fatalf("rejoin rate %.2f, want 0.5", got)
	}
	if (causality.Report{}).AuxRejoinRate() != 0 {
		t.Fatal("no aux ops must report rate 0")
	}
}

func TestFlowEventsPairUp(t *testing.T) {
	e := newEngine(causality.Config{})
	e.Observe(flAbort(1000, 1, 9))
	e.Observe(specAbort(1200, 2, 3))
	e.Observe(finish(2000))

	evs := e.FlowEvents()
	if len(evs) != 4 {
		t.Fatalf("flow events = %d, want 2 per edge", len(evs))
	}
	for i := 0; i < len(evs); i += 2 {
		s, f := evs[i], evs[i+1]
		if s.Ph != "s" || f.Ph != "f" {
			t.Fatalf("pair %d phases %q/%q, want s/f", i/2, s.Ph, f.Ph)
		}
		if s.Cat != "causality" || f.Cat != s.Cat || s.ID == "" || f.ID != s.ID {
			t.Fatalf("pair %d cat/id mismatch: %+v %+v", i/2, s, f)
		}
		if f.BP != "e" {
			t.Fatalf("flow finish must bind to the enclosing slice (bp=e), got %q", f.BP)
		}
		if s.Ts > f.Ts {
			t.Fatalf("flow start at %d after finish at %d", s.Ts, f.Ts)
		}
	}
	// First edge: aborter 9's access at 990 to victim 1's abort at 1000.
	if evs[0].Tid != 9 || evs[0].Ts != 990 || evs[1].Tid != 1 || evs[1].Ts != 1000 {
		t.Fatalf("first flow pair %+v %+v", evs[0], evs[1])
	}
	if evs[1].Args["class"] != causality.ClassFallbackLock {
		t.Fatalf("flow args = %v", evs[1].Args)
	}
}

func TestMaxEdgesBound(t *testing.T) {
	e := newEngine(causality.Config{MaxEdges: 3})
	for i := uint64(0); i < 10; i++ {
		e.Observe(specAbort(1000+i, int(i%4), int(4+i%4)))
	}
	e.Observe(finish(2000))
	if got := len(e.Edges()); got != 3 {
		t.Fatalf("edges = %d, want bound 3", got)
	}
	if r := e.Report(); r.AbortsByClass[causality.ClassSpecConflict] != 10 {
		t.Fatal("classification must continue past the edge bound")
	}
}

// TestAttachMirrorsRegistry wires the engine through a real collector and
// checks the registry counters, the scorecard in the text dump, and epoch
// histograms.
func TestAttachMirrorsRegistry(t *testing.T) {
	col := obs.NewCollector("hle", "mcs", 1000)
	eng := causality.Attach(col, causality.Config{})
	if sinks := col.Sinks(); len(sinks) != 1 || sinks[0] != obs.Sink(eng) {
		t.Fatal("Attach must attach the engine as the collector's sink")
	}
	col.SetLockLines([]int{lockLine})

	col.Observe(flAbort(1000, 1, 9))
	col.Observe(flAbort(2000, 2, 1))
	col.Observe(flAbort(3000, 3, 2))
	col.Observe(&obs.Event{Kind: obs.KindTxAbort, When: 3100, Tid: 4, Cause: "capacity", ConflictLine: -1, ConflictTid: -1})
	col.Observe(&obs.Event{Kind: obs.KindOp, Start: 2700, When: 3200, Tid: 9, Attempts: 2, Aborts: 1})
	col.Finish(4000)

	base := col.BaseLabels()
	if got := col.Reg.Counter(causality.MetricEpochs, base).Value(); got != 1 {
		t.Fatalf("epoch counter = %d, want 1", got)
	}
	if got := col.Reg.Counter(causality.MetricAbortsByClass, base.With("class", causality.ClassFallbackLock)).Value(); got != 3 {
		t.Fatalf("fallback-lock counter = %d, want 3", got)
	}
	if got := col.Reg.Counter(causality.MetricAbortsByClass, base.With("class", causality.ClassOther)).Value(); got != 1 {
		t.Fatalf("other counter = %d, want 1", got)
	}
	if h := col.Reg.Histogram(causality.MetricEpochDepth, base); h.Count() != 1 || h.Max() != 3 {
		t.Fatalf("epoch depth histogram count=%d max=%d, want 1 sample of 3", h.Count(), h.Max())
	}
	if h := col.Reg.Histogram(causality.MetricEpochCycles, base); h.Count() != 1 || h.Sum() != 2010 {
		t.Fatalf("epoch cycles histogram count=%d sum=%d, want one 2010-cycle epoch", h.Count(), h.Sum())
	}

	var sb strings.Builder
	col.WriteText(&sb, 5, nil)
	for _, want := range []string{
		"speculation health (abort causality):",
		"aborts fallback-lock  3",
		"serialization epochs 1",
		"verdict: lemming detected",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("collector dump missing %q:\n%s", want, sb.String())
		}
	}
}

// TestDetachedEngineSafe: New without Attach must work without registry
// handles, and an unfinished engine reports only closed state.
func TestDetachedEngineSafe(t *testing.T) {
	e := newEngine(causality.Config{})
	e.Observe(flAbort(1000, 1, 9))
	e.Observe(flAbort(2000, 2, 1))
	e.Observe(flAbort(2500, 3, 2))
	// No Finish: the open epoch is excluded and TotalCycles is 0.
	r := e.Report()
	if len(r.Epochs) != 0 || r.TotalCycles != 0 || r.Lemming {
		t.Fatalf("unfinished report %+v, want no closed epochs", r)
	}
	if r.SerializedFraction() != 0 || r.EpochsPerMcycle() != 0 || r.ThroughputLostPct() != 0 {
		t.Fatal("zero-cycle report must not divide by zero")
	}
	if got := r.Verdict("", ""); !strings.Contains(got, "no cascade: run") {
		t.Fatalf("empty-id verdict = %q", got)
	}
}
