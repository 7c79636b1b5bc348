// Package locks implements the paper's lock substrate on simulated memory:
// the TTAS spinlock and the fair MCS, ticket and CLH locks, plus the
// HLE-adapted ticket and CLH variants from Appendix A. All lock words and
// queue nodes live in simulated memory, so lock operations participate in
// the HTM's conflict detection exactly as they do on real hardware — which
// is what produces (and lets the paper's schemes fix) the lemming effect.
//
// Invariants: every method takes the acquiring *sim.Proc and must be called
// from the goroutine currently running that proc (the single-runner
// invariant — lock state needs no host synchronization); blocking is in
// virtual time via the machine's waiter lists, so acquisition order is a
// deterministic function of the simulated schedule.
package locks

import (
	"elision/internal/htm"
	"elision/internal/mem"
	"elision/internal/sim"
)

// Lock is a mutual-exclusion lock over simulated memory.
type Lock interface {
	// Name identifies the lock type in benchmark output ("ttas", "mcs", ...).
	Name() string
	// Lock acquires the lock non-transactionally, blocking in virtual time.
	Lock(p *sim.Proc)
	// Unlock releases the lock non-transactionally.
	Unlock(p *sim.Proc)
	// HeldTx reads the lock state transactionally (placing it in the read
	// set) and reports whether some thread holds the lock. SLR uses this
	// for its commit-time check (Figure 5, line 23).
	HeldTx(tx *htm.Tx) bool
	// WaitUntilFree spins non-transactionally until the lock appears free.
	WaitUntilFree(p *sim.Proc)
}

// LineReporter is implemented by locks that can report the simulated cache
// lines holding their lock words and queue nodes. The observability layer
// uses it to attribute hot-line profiler entries: a lemming run's conflicts
// land on these lines, an SLR run's should not.
type LineReporter interface {
	// LockLines returns the cache-line indices (mem.LineOf) of every word
	// the lock protocol touches: the lock word itself plus any queue nodes.
	LockLines() []int
}

// Elidable is a Lock that supports hardware lock elision.
type Elidable interface {
	Lock
	// SpecAcquire performs the XACQUIRE-elided acquire inside tx: the lock
	// word enters the read set with an illusion value, and the pre-elision
	// state is examined. ok reports whether the lock was observed free so
	// the critical section may proceed speculatively. When !ok, wait is the
	// location the thread would spin on inside the transaction (the caller
	// passes it to Tx.Wait, which ends in an abort — as on real hardware).
	SpecAcquire(tx *htm.Tx) (ok bool, wait mem.Addr)
	// SpecRelease performs the XRELEASE-elided release. Only called after a
	// successful SpecAcquire.
	SpecRelease(tx *htm.Tx)
	// AcquireNT is the non-transactional re-execution of the XACQUIRE
	// instruction after an HLE abort. For TTAS it is a single TAS that can
	// fail (return false) when the lock is held; for queue and ticket locks
	// the instruction irrevocably enqueues the thread, so it blocks until
	// the lock is held and returns true. This asymmetry is the heart of
	// the fair-lock lemming effect (§4).
	AcquireNT(p *sim.Proc) bool
}

// TTASProtocol reports whether l follows Figure 1's test-and-test-and-set
// lock-word protocol: a thread tests the word and waits for it to clear
// before issuing its (possibly elided) test-and-set, and AcquireNT is one
// TAS that can fail.
func TTASProtocol(l Lock) bool {
	switch l.(type) {
	case *TTAS, *BackoffTTAS:
		return true
	}
	return false
}
