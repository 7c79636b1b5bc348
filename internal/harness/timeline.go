package harness

import (
	"fmt"
	"strings"

	"elision/internal/obs"
	"elision/internal/trace"
)

// LemmingTimeline runs the §4 point (Section4Config over plain HLE: a
// size-64 tree, 20% updates, max threads) with event tracing attached and
// renders an ASCII swimlane around the first non-speculative lock
// acquisition — the lemming trigger. On the MCS lock the timeline shows the
// abort column and the serial lock-held march that follows; on TTAS it
// shows recovery.
func LemmingTimeline(sc Scale, lock LockID) string {
	cfg := sc.Section4Config(SchemeHLE, lock)
	tr := trace.New(0)
	NewInstance(nil).RunObserved(cfg, nil, tr)

	// Center the window on the first lock acquisition.
	var trigger uint64
	for _, e := range tr.Events() {
		if e.Kind == obs.KindLockAcquire {
			trigger = e.When
			break
		}
	}
	const span = 40_000
	from := uint64(0)
	if trigger > span/4 {
		from = trigger - span/4
	}
	var sb strings.Builder
	counts := tr.Counts()
	fmt.Fprintf(&sb, "HLE-%s, %d threads, size-64 tree, 20%% updates — first lock acquisition at t=%d\n",
		lock, cfg.Threads, trigger)
	fmt.Fprintf(&sb, "totals: %d begins, %d commits, %d aborts, %d lock acquisitions\n",
		counts[obs.KindTxBegin], counts[obs.KindTxCommit], counts[obs.KindTxAbort], counts[obs.KindLockAcquire])
	tr.Timeline(&sb, cfg.Threads, from, from+span, 100)
	return sb.String()
}
