// Package trace records per-thread transactional events from a simulated
// run and renders them as an ASCII swimlane timeline — the visual
// counterpart of §4's serialization-dynamics analysis — and as Chrome
// trace-event JSON for Perfetto. A lemming cascade is immediately visible:
// a column of aborts followed by long lock-held spans on every lane.
//
// The Tracer is an obs.Sink that keeps the seven swimlane kinds of the
// event stream (obs.KindTxBegin through obs.KindAuxRelease), so trace
// depends on obs, not the reverse.
//
// Invariants: events arrive only from the currently running sim.Proc
// (single-runner), so the tracer needs no locking and the event sequence is
// a deterministic function of the machine seed; a nil *Tracer is a valid
// no-op sink, so tracing on or off cannot change simulated results.
package trace

import (
	"fmt"
	"io"
	"strings"

	"elision/internal/obs"
)

// Event is one recorded occurrence.
type Event struct {
	When uint64
	Proc int
	Kind obs.Kind
	// Arg is the numeric abort cause on obs.KindTxAbort, 0 otherwise.
	Arg int64
}

// Tracer accumulates events. A nil *Tracer is a valid no-op sink, so
// instrumented code pays one nil check when tracing is off.
type Tracer struct {
	events []Event
	limit  int
}

// New creates a tracer that keeps at most limit events (0 = 1<<20).
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Tracer{limit: limit}
}

// Observe implements obs.Sink: it records the swimlane kinds, which come
// first in obs.Kind's order, and ignores the rest. Safe on a nil receiver.
func (t *Tracer) Observe(ev *obs.Event) {
	if t == nil || ev.Kind > obs.KindAuxRelease || len(t.events) >= t.limit {
		return
	}
	t.events = append(t.events, Event{When: ev.When, Proc: ev.Tid, Kind: ev.Kind, Arg: ev.Arg})
}

// Events returns a copy of the recorded events, safe to hold or modify
// after further events.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.events) == 0 {
		return nil
	}
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Timeline renders the window [from, to) as an ASCII swimlane per proc,
// with cols columns of (to-from)/cols cycles each. Cell glyphs, by
// priority: 'L' a lock acquire, 'u' a lock release, 'a' an aux-lock
// acquire, 'v' an aux-lock release, 'x' an abort, 'c' a commit, 'b' a
// begin, '.' nothing.
func (t *Tracer) Timeline(w io.Writer, procs int, from, to uint64, cols int) {
	if t == nil || cols <= 0 || to <= from {
		return
	}
	width := (to - from + uint64(cols) - 1) / uint64(cols)
	if width == 0 {
		width = 1
	}
	grid := make([][]byte, procs)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", cols))
	}
	prio := func(g byte) int {
		switch g {
		case 'L':
			return 7
		case 'u':
			return 6
		case 'a':
			return 5
		case 'v':
			return 4
		case 'x':
			return 3
		case 'c':
			return 2
		case 'b':
			return 1
		default:
			return 0
		}
	}
	for _, e := range t.events {
		if e.When < from || e.When >= to || e.Proc < 0 || e.Proc >= procs {
			continue
		}
		col := int((e.When - from) / width)
		if col >= cols {
			col = cols - 1
		}
		var g byte
		switch e.Kind {
		case obs.KindTxBegin:
			g = 'b'
		case obs.KindTxCommit:
			g = 'c'
		case obs.KindTxAbort:
			g = 'x'
		case obs.KindLockAcquire:
			g = 'L'
		case obs.KindLockRelease:
			g = 'u'
		case obs.KindAuxAcquire:
			g = 'a'
		case obs.KindAuxRelease:
			g = 'v'
		default:
			continue
		}
		if prio(g) > prio(grid[e.Proc][col]) {
			grid[e.Proc][col] = g
		}
	}
	fmt.Fprintf(w, "timeline %d..%d cycles (%d cycles/col; b=begin c=commit x=abort L=lock u=unlock a=aux-lock v=aux-unlock)\n", from, to, width)
	for i, lane := range grid {
		fmt.Fprintf(w, "  p%-2d %s\n", i, lane)
	}
}

// Counts tallies events by kind.
func (t *Tracer) Counts() map[obs.Kind]int {
	out := make(map[obs.Kind]int, int(obs.KindAuxRelease))
	if t == nil {
		return out
	}
	for _, e := range t.events {
		out[e.Kind]++
	}
	return out
}
