package harness

import (
	"fmt"
	"strings"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/obs"
	"elision/internal/rbtree"
	"elision/internal/sim"
	"elision/internal/trace"
)

// LemmingTimeline runs the §4 workload (size-64 tree, 20% updates, max
// threads, plain HLE) with event tracing attached and renders an ASCII
// swimlane around the first non-speculative lock acquisition — the lemming
// trigger. On the MCS lock the timeline shows the abort column and the
// serial lock-held march that follows; on TTAS it shows recovery.
func LemmingTimeline(sc Scale, lock LockID) string {
	nt := sc.maxThreads()
	m := sim.MustNew(sim.Config{Procs: nt, Seed: sc.Seed, Quantum: sc.Quantum, Cores: sc.Cores})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 18})
	tr := trace.New(0)
	hm.SetTracer(tr)
	tree := rbtree.New(hm, nt)
	raw := htm.Raw{M: hm}
	for i := 0; i < 64; i++ {
		tree.Insert(raw, int64(i*2), 1)
	}
	l, err := core.BuildLock(hm, string(lock), nt)
	if err != nil {
		panic(err)
	}
	s := core.NewHLE(hm, l)
	for i := 0; i < nt; i++ {
		m.Go(func(p *sim.Proc) {
			for p.Clock() < sc.Budget {
				key := int64(p.RandN(128))
				r := p.RandN(100)
				switch {
				case r < 10:
					s.Critical(p, func(c htm.Ctx) { tree.Insert(c, key, 1) })
				case r < 20:
					s.Critical(p, func(c htm.Ctx) { tree.Delete(c, key) })
				default:
					s.Critical(p, func(c htm.Ctx) { tree.Lookup(c, key) })
				}
			}
		})
	}
	if err := m.Run(); err != nil {
		panic(fmt.Sprintf("harness: timeline run: %v", err))
	}

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
		lock, nt, trigger)
	fmt.Fprintf(&sb, "totals: %d begins, %d commits, %d aborts, %d lock acquisitions\n",
		counts[obs.KindTxBegin], counts[obs.KindTxCommit], counts[obs.KindTxAbort], counts[obs.KindLockAcquire])
	tr.Timeline(&sb, nt, from, from+span, 100)
	return sb.String()
}
