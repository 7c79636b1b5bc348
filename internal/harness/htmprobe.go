package harness

import (
	"fmt"
	"strings"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/sim"
)

// HTMProbes characterizes the simulated HTM the way the paper's companion
// technical report probes Haswell's TSX: its capacity limits, its
// spurious-abort rate, its requestor-wins conflict policy, and the livelock
// that naive lock removal suffers without SLR's progress mechanism (§5).
// Each probe is a fixed deterministic simulation; they run in this order.
func HTMProbes() string {
	var sb strings.Builder
	probeCapacity(&sb)
	probeSpurious(&sb)
	probeRequestorWins(&sb)
	probeNaiveLockRemoval(&sb)
	return sb.String()
}

// runProbe runs one probe's machine to completion.
func runProbe(m *sim.Machine) {
	if err := m.Run(); err != nil {
		panic(fmt.Sprintf("harness: htm probe: %v", err))
	}
}

// probeCapacity grows a transaction's read and write sets until they abort.
func probeCapacity(sb *strings.Builder) {
	m := sim.MustNew(sim.Config{Procs: 1, Seed: 1})
	cost := sim.DefaultCost()
	cost.SpuriousDenom = 0 // isolate capacity
	cost.TxTimer = 0       // a 4096-line sweep outlasts the transaction timer
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 22, Cost: cost})
	base := hm.Store().AllocLines(8192)
	var maxRead, maxWrite int
	m.Go(func(p *sim.Proc) {
		st := hm.Atomic(p, func(tx *htm.Tx) {
			for i := 0; ; i++ {
				_ = tx.Load(base + mem.Addr(i*mem.LineWords))
				maxRead = i + 1
			}
		})
		if st.Cause != htm.CauseCapacity {
			maxRead = -1
		}
		st = hm.Atomic(p, func(tx *htm.Tx) {
			for i := 0; ; i++ {
				tx.Store(base+mem.Addr(i*mem.LineWords), 1)
				maxWrite = i + 1
			}
		})
		if st.Cause != htm.CauseCapacity {
			maxWrite = -1
		}
	})
	runProbe(m)
	fmt.Fprintf(sb, "capacity: read set %d lines (%d KB), write set %d lines (%d KB)\n",
		maxRead, maxRead*64/1024, maxWrite, maxWrite*64/1024)
}

// probeSpurious measures the abort rate of conflict-free transactions.
func probeSpurious(sb *strings.Builder) {
	m := sim.MustNew(sim.Config{Procs: 1, Seed: 2})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 16})
	a := hm.Store().AllocLines(1)
	const txns = 200_000
	aborted := 0
	m.Go(func(p *sim.Proc) {
		for i := 0; i < txns; i++ {
			st := hm.Atomic(p, func(tx *htm.Tx) {
				for j := 0; j < 10; j++ {
					_ = tx.Load(a)
				}
			})
			if !st.Committed {
				aborted++
			}
		}
	})
	runProbe(m)
	fmt.Fprintf(sb, "spurious: %d of %d conflict-free transactions aborted (%.4f%%)\n",
		aborted, txns, 100*float64(aborted)/txns)
}

// probeRequestorWins demonstrates the conflict-resolution policy: the later
// accessor always survives.
func probeRequestorWins(sb *strings.Builder) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 3})
	cost := sim.DefaultCost()
	cost.SpuriousDenom = 0
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 16, Cost: cost})
	a := hm.Store().AllocLines(1)
	var first, second htm.Status
	m.Go(func(p *sim.Proc) {
		first = hm.Atomic(p, func(tx *htm.Tx) {
			tx.Store(a, 1)
			p.Advance(10_000) // hold the write set open
			_ = tx.Load(a)
		})
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(2_000)
		second = hm.Atomic(p, func(tx *htm.Tx) { _ = tx.Load(a) })
	})
	runProbe(m)
	fmt.Fprintf(sb, "requestor wins: earlier writer committed=%v, later reader committed=%v\n",
		first.Committed, second.Committed)
}

// probeNaiveLockRemoval shows why SLR needs its lock fallback, and what the
// Rajwar-Goodman hardware assumed instead (§5): symmetric transactions that
// write each other's data, run with pure retries and no fallback, under
// both conflict policies. Requestor-wins (Haswell) wastes attempts on
// mutual dooming; committer-wins (a progress-guaranteeing policy) lets the
// incumbent finish, so far fewer attempts are needed.
func probeNaiveLockRemoval(sb *strings.Builder) {
	for _, pol := range []htm.Policy{htm.RequestorWins, htm.CommitterWins} {
		name := "requestor-wins"
		if pol == htm.CommitterWins {
			name = "committer-wins"
		}
		m := sim.MustNew(sim.Config{Procs: 4, Seed: 4})
		cost := sim.DefaultCost()
		cost.SpuriousDenom = 0
		hm := htm.NewMemory(m, htm.Config{Words: 1 << 16, Cost: cost, Policy: pol})
		cells := hm.Store().AllocLines(4)
		const target, cap = 50, 20_000
		commits := [4]int{}
		attempts := [4]int{}
		for i := 0; i < 4; i++ {
			i := i
			m.Go(func(p *sim.Proc) {
				for commits[i] < target && attempts[i] < cap {
					attempts[i]++
					st := hm.Atomic(p, func(tx *htm.Tx) {
						// Touch all four lines in a per-thread rotation:
						// everyone conflicts with everyone.
						for j := 0; j < 4; j++ {
							c := cells + mem.Addr(((i+j)%4)*mem.LineWords)
							tx.Store(c, tx.Load(c)+1)
							p.Advance(250)
						}
					})
					if st.Committed {
						commits[i]++
					}
				}
			})
		}
		runProbe(m)
		totC, totA := 0, 0
		for i := range commits {
			totC += commits[i]
			totA += attempts[i]
		}
		fmt.Fprintf(sb, "naive lock removal (%s): %d commits in %d attempts (%.1f attempts/commit)\n",
			name, totC, totA, float64(totA)/float64(totC))
	}
	// And the paper's fix: the same workload through SLR, whose MAX_RETRIES
	// plus lock fallback restores progress on requestor-wins hardware.
	m := sim.MustNew(sim.Config{Procs: 4, Seed: 4})
	cost := sim.DefaultCost()
	cost.SpuriousDenom = 0
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 16, Cost: cost})
	slr := core.NewSLR(hm, locks.NewTTAS(hm))
	cells := hm.Store().AllocLines(4)
	const target = 50
	var stats core.Stats
	for i := 0; i < 4; i++ {
		i := i
		m.Go(func(p *sim.Proc) {
			for n := 0; n < target; n++ {
				stats.Add(slr.Critical(p, func(c htm.Ctx) {
					for j := 0; j < 4; j++ {
						a := cells + mem.Addr(((i+j)%4)*mem.LineWords)
						c.Store(a, c.Load(a)+1)
						p.Advance(250)
					}
				}))
			}
		})
	}
	runProbe(m)
	fmt.Fprintf(sb, "same workload under SLR:             %d commits in %d attempts (%.1f attempts/commit, %.0f%% via lock fallback)\n",
		stats.Ops, stats.Attempts, float64(stats.Attempts)/float64(stats.Ops), 100*stats.NonSpecFraction())
	fmt.Fprintln(sb, "(SLR's MAX_RETRIES + lock fallback restore progress on requestor-wins hardware; §5)")
}
