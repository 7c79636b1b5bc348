package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"elision/internal/obs"
)

// ChromeTraceEvents converts recorded simulator events into Chrome
// trace-event objects: transactions and lock-held spans become B/E duration
// pairs per simulated thread, aborts additionally become thread-scoped
// instant markers, and each thread gets a metadata name record. causeName,
// when non-nil, renders an abort's Arg (the abort-cause code) for the
// abort markers; nil leaves the numeric code.
func ChromeTraceEvents(events []Event, causeName func(arg int64) string) []obs.TraceEvent {
	// Sort a copy by time (stable, so same-cycle events keep emit order);
	// Chrome's importer requires nondecreasing ts within each (pid, tid).
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].When < evs[j].When })

	out := make([]obs.TraceEvent, 0, len(evs)+8)
	// open tracks each thread's stack of open duration spans ("tx", "lock")
	// so B/E pairs stay balanced even on truncated traces.
	open := map[int][]string{}
	seen := map[int]bool{}
	var maxTs uint64

	push := func(tid int, ts uint64, name string) {
		open[tid] = append(open[tid], name)
		out = append(out, obs.TraceEvent{Name: name, Ph: "B", Ts: ts, Pid: 0, Tid: tid})
	}
	// pop closes the innermost open span iff it has the expected name,
	// reporting whether it did.
	pop := func(tid int, ts uint64, name string, args map[string]any) bool {
		st := open[tid]
		if len(st) == 0 || st[len(st)-1] != name {
			return false
		}
		open[tid] = st[:len(st)-1]
		out = append(out, obs.TraceEvent{Name: name, Ph: "E", Ts: ts, Pid: 0, Tid: tid, Args: args})
		return true
	}

	for _, e := range evs {
		if e.When > maxTs {
			maxTs = e.When
		}
		seen[e.Proc] = true
		switch e.Kind {
		case obs.KindTxBegin:
			push(e.Proc, e.When, "tx")
		case obs.KindTxCommit:
			if !pop(e.Proc, e.When, "tx", map[string]any{"outcome": "commit"}) {
				out = append(out, obs.TraceEvent{Name: "commit", Ph: "i", Ts: e.When, Pid: 0, Tid: e.Proc, Scope: "t"})
			}
		case obs.KindTxAbort:
			cause := any(e.Arg)
			if causeName != nil {
				cause = causeName(e.Arg)
			}
			pop(e.Proc, e.When, "tx", map[string]any{"outcome": "abort", "cause": cause})
			out = append(out, obs.TraceEvent{
				Name: "abort", Ph: "i", Ts: e.When, Pid: 0, Tid: e.Proc,
				Scope: "t", Args: map[string]any{"cause": cause},
			})
		case obs.KindLockAcquire:
			push(e.Proc, e.When, "lock")
		case obs.KindLockRelease:
			if !pop(e.Proc, e.When, "lock", nil) {
				out = append(out, obs.TraceEvent{Name: "unlock", Ph: "i", Ts: e.When, Pid: 0, Tid: e.Proc, Scope: "t"})
			}
		case obs.KindAuxAcquire:
			push(e.Proc, e.When, "aux")
		case obs.KindAuxRelease:
			if !pop(e.Proc, e.When, "aux", nil) {
				out = append(out, obs.TraceEvent{Name: "aux-unlock", Ph: "i", Ts: e.When, Pid: 0, Tid: e.Proc, Scope: "t"})
			}
		}
	}

	// Close spans left open by a truncated trace so every B has its E.
	tids := make([]int, 0, len(open))
	for tid := range open {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		for st := open[tid]; len(st) > 0; st = st[:len(st)-1] {
			out = append(out, obs.TraceEvent{
				Name: st[len(st)-1], Ph: "E", Ts: maxTs, Pid: 0, Tid: tid,
				Args: map[string]any{"outcome": "truncated"},
			})
		}
	}

	// Thread-name metadata so lanes read "proc N" in the UI.
	for _, tid := range sortedKeys(seen) {
		out = append(out, obs.TraceEvent{
			Name: "thread_name", Ph: "M", Ts: 0, Pid: 0, Tid: tid,
			Args: map[string]any{"name": "proc " + strconv.Itoa(tid)},
		})
	}
	return out
}

// WriteChromeTrace writes the events as a Chrome trace-event JSON array.
func WriteChromeTrace(w io.Writer, events []Event, causeName func(arg int64) string) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeTraceEvents(events, causeName))
}

// WriteChromeTraceFlows writes the events as a Chrome trace-event JSON array
// with extra pre-built events (typically abort-causality flow arrows from
// causality.FlowEvents) appended, so cascades render as arrows from the
// aborter's slice to the victim's aborting transaction.
func WriteChromeTraceFlows(w io.Writer, events []Event, causeName func(arg int64) string, extra []obs.TraceEvent) error {
	all := ChromeTraceEvents(events, causeName)
	all = append(all, extra...)
	enc := json.NewEncoder(w)
	return enc.Encode(all)
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[int]bool) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
