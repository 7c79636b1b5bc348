package trace

import (
	"strings"
	"testing"

	"elision/internal/obs"
)

// emit feeds the tracer one event the way the htm layer does.
func emit(tr *Tracer, when uint64, proc int, kind obs.Kind, arg int64) {
	tr.Observe(&obs.Event{Kind: kind, When: when, Tid: proc, Arg: arg})
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	emit(tr, 1, 0, obs.KindTxBegin, 0)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer misbehaved")
	}
}

func TestEmitAndCounts(t *testing.T) {
	tr := New(0)
	emit(tr, 1, 0, obs.KindTxBegin, 0)
	emit(tr, 2, 0, obs.KindTxAbort, 1)
	emit(tr, 3, 1, obs.KindTxBegin, 0)
	emit(tr, 4, 1, obs.KindTxCommit, 0)
	// Kinds past the swimlane seven are not recorded.
	emit(tr, 5, 1, obs.KindLockWait, 0)
	emit(tr, 6, 1, obs.KindOp, 0)
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4 swimlane events", tr.Len())
	}
	c := tr.Counts()
	if c[obs.KindTxBegin] != 2 || c[obs.KindTxAbort] != 1 || c[obs.KindTxCommit] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestLimitBoundsMemory(t *testing.T) {
	tr := New(3)
	for i := 0; i < 10; i++ {
		emit(tr, uint64(i), 0, obs.KindTxBegin, 0)
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
}

func TestTimelineRendersGlyphs(t *testing.T) {
	tr := New(0)
	emit(tr, 10, 0, obs.KindTxBegin, 0)
	emit(tr, 20, 0, obs.KindTxAbort, 1)
	emit(tr, 30, 1, obs.KindLockAcquire, 0)
	emit(tr, 90, 1, obs.KindTxCommit, 0)
	var sb strings.Builder
	tr.Timeline(&sb, 2, 0, 100, 10)
	out := sb.String()
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p1") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "x") || !strings.Contains(out, "L") || !strings.Contains(out, "c") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
	// Priority: an abort in the same cell as a begin renders as 'x'.
	lane0 := out[strings.Index(out, "p0"):]
	lane0 = lane0[:strings.Index(lane0, "\n")]
	if strings.Count(lane0, "b")+strings.Count(lane0, "x") != 2 {
		t.Fatalf("lane 0 glyphs wrong: %s", lane0)
	}
}

func TestTimelineEmptyWindow(t *testing.T) {
	tr := New(0)
	var sb strings.Builder
	tr.Timeline(&sb, 1, 100, 100, 10) // empty window: no output, no panic
	tr.Timeline(&sb, 1, 0, 100, 0)
	if sb.Len() != 0 {
		t.Fatalf("unexpected output: %q", sb.String())
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	tr := New(0)
	emit(tr, 1, 0, obs.KindTxBegin, 0)
	evs := tr.Events()
	evs[0].Kind = obs.KindTxAbort
	if c := tr.Counts(); c[obs.KindTxBegin] != 1 || c[obs.KindTxAbort] != 0 {
		t.Fatalf("mutating Events() leaked into the tracer: %v", c)
	}
	emit(tr, 2, 0, obs.KindTxCommit, 0)
	if len(evs) != 1 {
		t.Fatal("earlier snapshot grew with later emits")
	}
}

func TestTimelineUnlockGlyph(t *testing.T) {
	tr := New(0)
	emit(tr, 10, 0, obs.KindLockRelease, 0)
	var sb strings.Builder
	tr.Timeline(&sb, 1, 0, 100, 10)
	if out := sb.String(); !strings.Contains(out, "u") || !strings.Contains(out, "u=unlock") {
		t.Fatalf("release not rendered as 'u':\n%s", out)
	}
	// Priority: release outranks abort/commit/begin in a shared cell but
	// yields to an acquire.
	tr2 := New(0)
	emit(tr2, 10, 0, obs.KindTxAbort, 0)
	emit(tr2, 11, 0, obs.KindLockRelease, 0)
	emit(tr2, 50, 0, obs.KindLockRelease, 0)
	emit(tr2, 51, 0, obs.KindLockAcquire, 0)
	sb.Reset()
	tr2.Timeline(&sb, 1, 0, 100, 10)
	lane := sb.String()[strings.Index(sb.String(), "p0"):]
	if !strings.Contains(lane, "u") || !strings.Contains(lane, "L") || strings.Contains(lane, "x") {
		t.Fatalf("priority wrong: %s", lane)
	}
}

func TestTimelineWindowEdges(t *testing.T) {
	tr := New(0)
	emit(tr, 100, 0, obs.KindTxAbort, 0) // exactly at `to`: excluded (window is [from, to))
	emit(tr, 99, 0, obs.KindTxCommit, 0) // last cycle inside: included
	emit(tr, 50, 3, obs.KindTxAbort, 0)  // Proc beyond the lane count: skipped
	emit(tr, 50, -1, obs.KindTxAbort, 0) // negative Proc: skipped
	var sb strings.Builder
	tr.Timeline(&sb, 1, 0, 100, 10)
	out := sb.String()
	lane := out[strings.Index(out, "p0"):]
	if strings.Contains(lane, "x") {
		t.Fatalf("out-of-window or out-of-lane event rendered:\n%s", out)
	}
	if !strings.Contains(lane, "c") {
		t.Fatalf("in-window event missing:\n%s", out)
	}
}

func TestTimelineMoreColsThanCycles(t *testing.T) {
	// Span 4 cycles over 10 columns: width clamps to 1 and events land in
	// their own columns without panicking.
	tr := New(0)
	emit(tr, 0, 0, obs.KindTxBegin, 0)
	emit(tr, 3, 0, obs.KindTxCommit, 0)
	var sb strings.Builder
	tr.Timeline(&sb, 1, 0, 4, 10)
	out := sb.String()
	if !strings.Contains(out, "1 cycles/col") {
		t.Fatalf("width not clamped to 1:\n%s", out)
	}
	if !strings.Contains(out, "b..c") {
		t.Fatalf("events misplaced:\n%s", out)
	}
}

func TestNilTracerTimelineAndCounts(t *testing.T) {
	var tr *Tracer
	var sb strings.Builder
	tr.Timeline(&sb, 2, 0, 100, 10)
	if sb.Len() != 0 {
		t.Fatalf("nil tracer rendered: %q", sb.String())
	}
	if c := tr.Counts(); len(c) != 0 {
		t.Fatalf("nil tracer counted: %v", c)
	}
}
