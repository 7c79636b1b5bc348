// Package elision is a Go reproduction of "Software-Improved Hardware Lock
// Elision" (Afek, Levy, Morrison; PODC 2014): software schemes — SLR
// (software-assisted lock removal) and SCM (software-assisted conflict
// management) — that recover the concurrency hardware lock elision loses to
// the lemming effect.
//
// Go has no TSX intrinsics and TSX itself is deprecated, so the library
// ships its own hardware: a deterministic discrete-event simulation of an
// HTM-capable multiprocessor (virtual-time scheduling, cache-line conflict
// detection with requestor-wins resolution, HLE elision semantics, capacity
// and spurious aborts, a MESI-flavoured hit/miss cost model). Everything —
// locks, trees, STAMP kernels — lives in simulated memory and runs
// identically under every elision scheme.
//
// # Quick start
//
//	sys, err := elision.NewSystem(elision.Config{Threads: 8, MemoryWords: 1 << 20})
//	lock := sys.NewMCSLock()
//	scheme := sys.HLESCM(lock) // the paper's conflict-management scheme
//	counter := sys.Alloc(1)
//	for i := 0; i < 8; i++ {
//	    sys.Go(func(p *elision.Proc) {
//	        for k := 0; k < 1000; k++ {
//	            scheme.Critical(p, func(c elision.Ctx) {
//	                c.Store(counter, c.Load(counter)+1)
//	            })
//	        }
//	    })
//	}
//	err = sys.Run()
//
// The six schemes of the paper's evaluation are NewStandard, NewHLE,
// HLERetries, HLESCM, OptSLR and SLRSCM; the lock substrate provides TTAS,
// MCS, and the HLE-adapted ticket and CLH locks from Appendix A.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every figure.
package elision

import (
	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/sim"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Proc is one simulated hardware thread.
	Proc = sim.Proc
	// Ctx is the memory accessor a critical-section body receives: loads
	// and stores are transactional on the speculative path and plain
	// accesses when the scheme fell back to holding the lock.
	Ctx = htm.Ctx
	// Addr is a word address in simulated memory.
	Addr = mem.Addr
	// Scheme executes critical sections under one locking/elision policy.
	Scheme = core.Scheme
	// Outcome describes how one critical section completed.
	Outcome = core.Outcome
	// Stats aggregates outcomes with the paper's S/N/A accounting.
	Stats = core.Stats
	// Lock is a mutual-exclusion lock over simulated memory.
	Lock = locks.Lock
	// Elidable is a lock that supports hardware lock elision.
	Elidable = locks.Elidable
	// CostModel assigns virtual-cycle costs to machine events.
	CostModel = sim.CostModel
	// TxStatus is the result of a raw hardware transaction attempt.
	TxStatus = htm.Status
)

// Config parameterizes a simulated system.
type Config struct {
	// Threads is the number of simulated hardware threads (1..64).
	Threads int
	// MemoryWords sizes simulated memory (default 1<<20 words = 8 MiB).
	MemoryWords int
	// Seed makes the whole run reproducible.
	Seed uint64
	// Quantum is the scheduler's clock-skew tolerance in cycles; 0 gives
	// exact virtual-time interleaving, larger values run faster.
	Quantum uint64
	// Cores enables the SMT model: 0 < Cores < Threads makes threads share
	// physical cores (the paper's testbed is Cores=4, Threads=8).
	Cores int
	// Cost overrides the default cycle cost model (zero value = defaults).
	Cost CostModel
}

// System is a wired simulated machine: a scheduler plus transactional
// memory, ready for locks, schemes and thread bodies.
type System struct {
	machine *sim.Machine
	memory  *htm.Memory
	threads int
}

// NewSystem builds a System.
func NewSystem(cfg Config) (*System, error) {
	if cfg.MemoryWords == 0 {
		cfg.MemoryWords = 1 << 20
	}
	m, err := sim.New(sim.Config{Procs: cfg.Threads, Seed: cfg.Seed, Quantum: cfg.Quantum, Cores: cfg.Cores})
	if err != nil {
		return nil, err
	}
	hm := htm.NewMemory(m, htm.Config{Words: cfg.MemoryWords, Cost: cfg.Cost})
	return &System{machine: m, memory: hm, threads: cfg.Threads}, nil
}

// Machine exposes the discrete-event scheduler.
func (s *System) Machine() *sim.Machine { return s.machine }

// Memory exposes the simulated transactional memory.
func (s *System) Memory() *htm.Memory { return s.memory }

// Alloc reserves n cache lines of simulated memory and returns the address
// of the first word. Call before Run.
func (s *System) Alloc(lines int) Addr {
	return s.memory.Store().AllocLines(lines)
}

// Setup returns a zero-cost accessor for initializing simulated memory
// before Run (the analogue of loading a dataset before the benchmark).
func (s *System) Setup() htm.Raw { return htm.Raw{M: s.memory} }

// Go assigns body to the next free simulated thread.
func (s *System) Go(body func(p *Proc)) { s.machine.Go(body) }

// Run executes all bodies to completion in virtual time.
func (s *System) Run() error { return s.machine.Run() }

// --- lock constructors --------------------------------------------------------

// NewTTASLock allocates a test-and-test-and-set spinlock (Figure 1).
func (s *System) NewTTASLock() Elidable { return locks.NewTTAS(s.memory) }

// NewMCSLock allocates a fair MCS queue lock.
func (s *System) NewMCSLock() Elidable { return locks.NewMCS(s.memory, s.threads) }

// NewTicketLock allocates a standard (HLE-incompatible) ticket lock.
func (s *System) NewTicketLock() Lock { return locks.NewTicket(s.memory) }

// NewTicketHLELock allocates the paper's elision-adjusted ticket lock
// (Figure 13).
func (s *System) NewTicketHLELock() Elidable { return locks.NewTicketHLE(s.memory, s.threads) }

// NewCLHLock allocates a standard (HLE-incompatible) CLH lock.
func (s *System) NewCLHLock() Lock { return locks.NewCLH(s.memory, s.threads) }

// NewCLHHLELock allocates the paper's elision-adjusted CLH lock (Figure 15).
func (s *System) NewCLHHLELock() Elidable { return locks.NewCLHHLE(s.memory, s.threads) }

// --- scheme constructors --------------------------------------------------------

// NewStandard returns plain non-speculative locking.
func (s *System) NewStandard(l Lock) Scheme { return core.NewStandard(s.memory, l) }

// NewHLE returns raw hardware lock elision (abort => re-execute the
// acquire non-transactionally; the lemming effect included).
func (s *System) NewHLE(l Elidable) Scheme { return core.NewHLE(s.memory, l) }

// HLERetries returns Intel's recommended retry policy over HLE.
func (s *System) HLERetries(l Elidable, retries int) Scheme {
	return core.NewHLERetries(s.memory, l, retries)
}

// OptSLR returns the paper's software-assisted lock removal (Figure 5).
func (s *System) OptSLR(l Lock) Scheme { return core.NewSLR(s.memory, l) }

// HLESCM returns software-assisted conflict management over HLE-style
// attempts (Figure 7), with a fair MCS auxiliary lock.
func (s *System) HLESCM(main Lock) Scheme {
	return core.NewSCM(s.memory, main, locks.NewMCS(s.memory, s.threads), core.OverHLE)
}

// SLRSCM returns conflict management over SLR attempts.
func (s *System) SLRSCM(main Lock) Scheme {
	return core.NewSCM(s.memory, main, locks.NewMCS(s.memory, s.threads), core.OverSLR)
}

// GroupedHLESCM returns the grouped-conflict-management extension (§6
// Remark / §8 future work): aborted threads serialize per conflict
// location, across groups auxiliary locks, instead of one global group.
func (s *System) GroupedHLESCM(main Lock, groups int) Scheme {
	return core.NewGroupedSCM(s.memory, main, core.OverHLE, groups, s.threads)
}

// GroupedSLRSCM is the grouped extension over SLR attempts.
func (s *System) GroupedSLRSCM(main Lock, groups int) Scheme {
	return core.NewGroupedSCM(s.memory, main, core.OverSLR, groups, s.threads)
}

// NewBackoffTTASLock allocates a TTAS lock with bounded exponential backoff.
func (s *System) NewBackoffTTASLock() Elidable { return locks.NewBackoffTTAS(s.memory) }
