// Package core implements the paper's contribution: execution schemes that
// run lock-based critical sections over the simulated HTM.
//
// One Engine runs every scheme. Its Critical loop is parameterized by three
// axes: the attempt kind (how a transaction treats the lock), the conflict
// manager (whether aborted threads serialize on auxiliary locks), and the
// retry policy (when to stop speculating and take the lock). Each factory
// name is a preset on those axes:
//
//	standard        — plain non-speculative locking.
//	hle             — hardware lock elision as-is (Figure 1 dynamics): an
//	                  abort re-executes the XACQUIRE instruction
//	                  non-transactionally.
//	hle-retries     — Intel's recommendation: retry speculatively N times
//	                  before acquiring the lock non-speculatively.
//	opt-slr         — software-assisted lock removal (Figure 5): transactions
//	                  never touch the lock until commit time, where they read
//	                  it and self-abort if it is held. Sacrifices opacity.
//	hle-scm         — software-assisted conflict management (Figure 7) over
//	                  an HLE-style attempt: aborted threads serialize on an
//	                  auxiliary lock and rejoin the speculative run.
//	slr-scm         — SCM over SLR attempts.
//	*-scm-grouped   — SCM with auxiliary locks picked by conflict line (§6
//	                  Remark, §8).
//	adaptive-hle/slr — ck_elide-style per-abort-class budgets and forfeit
//	                  windows (AdaptiveConfig).
//	lazysub         — the deliberately unsafe lazy-subscription adversary:
//	                  opt-slr with its lock check escaped.
//
// A Scheme's Critical runs one critical section; the body receives an
// htm.Ctx whose loads and stores are transactional on the speculative path
// and plain accesses on the fallback path, so data-structure code is written
// once.
//
// Invariants: Critical must be called from the goroutine running p (the
// single-runner invariant), and a scheme's retry/fallback decisions draw
// randomness only from p's deterministic RNG — an execution is a
// bit-for-bit deterministic function of (machine config, scheme, lock,
// body behaviour). Aborted speculative attempts re-run the body, so Go-side
// side effects must be overwrite-idempotent.
package core

import (
	"elision/internal/htm"
	"elision/internal/sim"
)

// XABORT codes used by the schemes.
const (
	// CodeSLRLockHeld aborts an SLR transaction whose commit-time lock check
	// found the lock held (Figure 5, line 24).
	CodeSLRLockHeld = 1
	// CodeNonSpecRun aborts an RTM-elision transaction that observed the
	// main lock held at start (§6's Haswell-compatible implementation).
	CodeNonSpecRun = 2
	// CodeLockBusy aborts a retry-policy speculative attempt that observed
	// the lock busy at acquire time: the attempt is doomed, so the retry
	// loop aborts immediately rather than spinning in-transaction.
	CodeLockBusy = 3
)

// DefaultMaxRetries is the paper's retry budget before a thread gives up
// and acquires the lock non-speculatively (§7: 10 for HLE-retries, Opt SLR
// and the SCM auxiliary-lock holder).
const DefaultMaxRetries = 10

// Outcome describes how one critical section completed.
type Outcome struct {
	// Speculative is true when the section committed as a transaction
	// (an "S" operation in §4's accounting); false means it completed
	// holding the lock (an "N" operation).
	Speculative bool
	// Attempts counts executions of the critical section, speculative and
	// not (§4's per-operation attempt count).
	Attempts int
	// Aborts counts aborted speculative attempts ("A").
	Aborts int
	// AuxUsed is true when an SCM scheme routed the thread through the
	// serializing path (auxiliary lock).
	AuxUsed bool
	// AuxDwell is the number of cycles the thread spent holding auxiliary
	// locks (0 unless AuxUsed) — the serializing path's residency, which
	// bounds how long one conflict community stays serialized.
	AuxDwell uint64
	// LastCause is the abort cause of the final failed attempt, if any.
	LastCause htm.Cause
	// Forfeited is true when an adaptive scheme skipped elision for this
	// section because the thread was inside a forfeit window.
	Forfeited bool
	// ForfeitEntered is true when this section exhausted an abort class's
	// retry budget and opened a forfeit window for the thread.
	ForfeitEntered bool
	// ForfeitExited is true when this section consumed the thread's last
	// forfeited acquisition (the window closes; the next section may elide).
	ForfeitExited bool
	// ExhaustedClass is the abort class whose budget ran out. Meaningful
	// only when ForfeitEntered is set (adaptive schemes record ClassNone
	// otherwise; non-adaptive schemes leave the zero value).
	ExhaustedClass AbortClass
}

// Scheme executes critical sections under one locking/elision policy.
type Scheme interface {
	// Name identifies the scheme in benchmark output.
	Name() string
	// Critical runs body as one critical section and reports how it went.
	Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome
}

// ctx builds the accessor for proc p over memory m.
func ctx(m *htm.Memory, p *sim.Proc) htm.Ctx { return htm.Ctx{P: p, M: m} }

// --- NoLock -----------------------------------------------------------------

// NoLock runs the body with no synchronization at all. It is the "single
// thread with no locking" baseline Figures 9 uses for normalization; using
// it with more than one thread is a caller bug.
type NoLock struct {
	m *htm.Memory
}

var _ Scheme = (*NoLock)(nil)

// NewNoLock returns the unsynchronized baseline scheme.
func NewNoLock(m *htm.Memory) *NoLock { return &NoLock{m: m} }

// Name implements Scheme.
func (s *NoLock) Name() string { return "nolock" }

// Critical implements Scheme.
func (s *NoLock) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	body(ctx(s.m, p))
	return Outcome{Speculative: false, Attempts: 1}
}
