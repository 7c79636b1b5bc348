// Command htmprobe characterizes the simulated HTM the way the paper's
// companion technical report probes Haswell's TSX: capacity limits, the
// spurious-abort rate, the requestor-wins conflict policy, and the livelock
// that naive lock removal suffers without SLR's progress mechanism (§5).
//
//	go run ./cmd/htmprobe          # all four probes, fixed order
//	go run ./cmd/htmprobe -j 1     # run the probes sequentially
//
// Each probe is an independent deterministic simulation, so they fan out on
// the fleet orchestrator and print in fixed order regardless of -j.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("htmprobe", flag.ContinueOnError)
	j := fs.Int("j", 0, "parallel fleet workers (0 = all host CPUs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("htmprobe: unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	fc, err := fleet.Flags(*j)
	if err != nil {
		return err
	}

	probes := []func(io.Writer) error{
		probeCapacity, probeSpurious, probeRequestorWins, probeNaiveLockRemoval,
	}
	type probeOut struct {
		text string
		err  error
	}
	// Collect keys by index, so output order is fixed at any worker count.
	outs := fleet.Collect(fc, len(probes), func(i int) probeOut {
		var buf bytes.Buffer
		err := probes[i](&buf)
		return probeOut{text: buf.String(), err: err}
	})
	for _, o := range outs {
		if o.err != nil {
			return o.err
		}
		if _, err := io.WriteString(stdout, o.text); err != nil {
			return err
		}
	}
	return nil
}

// probeCapacity grows a transaction's read and write sets until they abort.
func probeCapacity(w io.Writer) error {
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
	if err := m.Run(); err != nil {
		return err
	}
	fmt.Fprintf(w, "capacity: read set %d lines (%d KB), write set %d lines (%d KB)\n",
		maxRead, maxRead*64/1024, maxWrite, maxWrite*64/1024)
	return nil
}

// probeSpurious measures the abort rate of conflict-free transactions.
func probeSpurious(w io.Writer) error {
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
	if err := m.Run(); err != nil {
		return err
	}
	fmt.Fprintf(w, "spurious: %d of %d conflict-free transactions aborted (%.4f%%)\n",
		aborted, txns, 100*float64(aborted)/txns)
	return nil
}

// probeRequestorWins demonstrates the conflict-resolution policy: the later
// accessor always survives.
func probeRequestorWins(w io.Writer) error {
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
	if err := m.Run(); err != nil {
		return err
	}
	fmt.Fprintf(w, "requestor wins: earlier writer committed=%v, later reader committed=%v\n",
		first.Committed, second.Committed)
	return nil
}

// probeNaiveLockRemoval shows why SLR needs its lock fallback, and what the
// Rajwar-Goodman hardware assumed instead (§5): symmetric transactions that
// write each other's data, run with pure retries and no fallback, under
// both conflict policies. Requestor-wins (Haswell) wastes attempts on
// mutual dooming; committer-wins (a progress-guaranteeing policy) lets the
// incumbent finish, so far fewer attempts are needed.
func probeNaiveLockRemoval(w io.Writer) error {
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
		if err := m.Run(); err != nil {
			return err
		}
		totC, totA := 0, 0
		for i := range commits {
			totC += commits[i]
			totA += attempts[i]
		}
		fmt.Fprintf(w, "naive lock removal (%s): %d commits in %d attempts (%.1f attempts/commit)\n",
			name, totC, totA, float64(totA)/float64(totC))
	}
	// And the paper's fix: the same workload through SLR, whose MAX_RETRIES
	// plus lock fallback restores progress on requestor-wins hardware.
	m := sim.MustNew(sim.Config{Procs: 4, Seed: 4})
	cost := sim.DefaultCost()
	cost.SpuriousDenom = 0
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 16, Cost: cost})
	lock := locks.NewTTAS(hm)
	slr := core.NewSLR(hm, lock)
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
	if err := m.Run(); err != nil {
		return err
	}
	fmt.Fprintf(w, "same workload under SLR:             %d commits in %d attempts (%.1f attempts/commit, %.0f%% via lock fallback)\n",
		stats.Ops, stats.Attempts, float64(stats.Attempts)/float64(stats.Ops), 100*stats.NonSpecFraction())
	fmt.Fprintln(w, "(SLR's MAX_RETRIES + lock fallback restore progress on requestor-wins hardware; §5)")
	return nil
}
