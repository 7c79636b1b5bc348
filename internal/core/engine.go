package core

import (
	"fmt"

	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/sim"
)

// attemptKind is how one speculative attempt treats the main lock.
type attemptKind int8

const (
	// elidedAcquire runs the body between the lock's XACQUIRE-elided
	// acquire and XRELEASE-elided release (HLE, Figure 1).
	elidedAcquire attemptKind = iota
	// startCheck reads the lock transactionally before the body and aborts
	// if it is held: §6's RTM-based HLE, which SCM wraps because Haswell
	// cannot nest HLE in RTM.
	startCheck
	// commitCheck reads the lock transactionally after the body and aborts
	// if it is held (SLR, Figure 5). The read subscribes: an acquisition
	// after the check dooms the transaction before it can commit.
	commitCheck
	// escapedCheck is commitCheck with the read escaped out of the
	// transaction: lazy subscription, deliberately unsafe (NewLazySub).
	escapedCheck
)

// retryPolicy decides, after an abort, whether to speculate again or to
// complete the section holding the lock.
type retryPolicy int8

const (
	// lockOnly never speculates.
	lockOnly retryPolicy = iota
	// reexecute is raw HLE: the hardware re-executes the acquire
	// non-transactionally, which over a TTAS-protocol lock can fail and
	// lead back to speculation.
	reexecute
	// fixedBudget retries up to Engine.MaxRetries times.
	fixedBudget
	// adaptiveBudgets spends per-abort-class budgets and opens forfeit
	// windows (AdaptiveConfig).
	adaptiveBudgets
)

// Mode selects the speculative attempt an SCM or adaptive preset wraps.
type Mode int8

// Modes.
const (
	// OverHLE keeps HLE semantics and opacity: the attempt reads the lock
	// before the body (SCM: an RTM-style check; adaptive: the elided
	// acquire) and aborts at once if it is held.
	OverHLE Mode = iota + 1
	// OverSLR wraps SLR attempts: the lock is checked only at commit.
	OverSLR
)

// preset is one factory name's position on the attempt-kind and
// retry-policy axes, plus the two fixed-budget details the paper's loops
// differ in. Non-adaptive presets are shared package-level values; each
// adaptive build owns one that also carries its config and per-thread
// forfeit counters.
type preset struct {
	name  string
	kind  attemptKind
	retry retryPolicy
	// countsAttempts makes MaxRetries bound every speculative attempt, and
	// makes a busy abort wait out the holder even when it used the last one
	// (Figure 5's loop). Otherwise MaxRetries bounds the retries after the
	// first abort, and a busy abort waits only before a retry.
	countsAttempts bool
	// ignoresHint retries whatever the abort status' retry hint says, as
	// Figure 7 does. Other fixed-budget presets take the lock at once when
	// the hint is clear (§7's tuning).
	ignoresHint bool

	cfg  AdaptiveConfig // adaptiveBudgets only
	skip []int          // adaptiveBudgets only: forfeited acquisitions left, per proc
}

var (
	presetStandard      = &preset{name: SchemeNameStandard, retry: lockOnly}
	presetHLE           = &preset{name: SchemeNameHLE, kind: elidedAcquire, retry: reexecute}
	presetHLERetries    = &preset{name: SchemeNameHLERetries, kind: elidedAcquire, retry: fixedBudget}
	presetOptSLR        = &preset{name: SchemeNameOptSLR, kind: commitCheck, retry: fixedBudget, countsAttempts: true}
	presetLazySub       = &preset{name: SchemeNameLazySub, kind: escapedCheck, retry: fixedBudget, countsAttempts: true}
	presetHLESCM        = &preset{name: SchemeNameHLESCM, kind: startCheck, retry: fixedBudget, ignoresHint: true}
	presetSLRSCM        = &preset{name: SchemeNameSLRSCM, kind: commitCheck, retry: fixedBudget}
	presetHLESCMGrouped = &preset{name: SchemeNameHLESCMGrouped, kind: startCheck, retry: fixedBudget, ignoresHint: true}
	presetSLRSCMGrouped = &preset{name: SchemeNameSLRSCMGrouped, kind: commitCheck, retry: fixedBudget}
)

// Engine runs critical sections for every scheme preset: one Critical loop
// over three axes. The attempt kind says how a transaction treats the main
// lock; the conflict manager says whether aborted threads serialize on
// auxiliary locks (SCM, Figure 7); the retry policy says when to stop
// speculating and take the lock. The constructors below are the presets.
type Engine struct {
	m *htm.Memory
	l locks.Lock
	// aux is the conflict manager: nil for none, else the auxiliary locks
	// an aborted thread serializes on, picked by its conflict line (plain
	// SCM has one).
	aux []locks.Lock
	// MaxRetries is the fixed-budget policy's budget. It bounds every
	// speculative attempt for opt-slr and lazysub, and the retries after
	// the first abort for hle-retries and the SCM presets. Other presets
	// ignore it.
	MaxRetries int
	pol        *preset
}

var _ Scheme = (*Engine)(nil)

func newEngine(m *htm.Memory, l locks.Lock, pol *preset) *Engine {
	return &Engine{m: m, l: l, MaxRetries: DefaultMaxRetries, pol: pol}
}

// NewStandard returns plain locking: every section takes the lock.
func NewStandard(m *htm.Memory, l locks.Lock) *Engine {
	return newEngine(m, l, presetStandard)
}

// NewHLE returns raw hardware lock elision over l: an abort re-executes the
// acquire non-transactionally (for TTAS a single TAS that may fail and lead
// back to speculation; for fair locks an irrevocable enqueue — the lemming
// effect).
func NewHLE(m *htm.Memory, l locks.Elidable) *Engine {
	return newEngine(m, l, presetHLE)
}

// NewHLERetries returns Intel's recommended retry policy: acquire the lock
// non-speculatively only once retries speculative retries have failed. A
// budget below 1 gives raw HLE.
func NewHLERetries(m *htm.Memory, l locks.Elidable, retries int) *Engine {
	if retries < 1 {
		return NewHLE(m, l)
	}
	e := newEngine(m, l, presetHLERetries)
	e.MaxRetries = retries
	return e
}

// NewSLR returns software-assisted lock removal (Figure 5) over any lock:
// the transaction never touches the lock until commit time, where it reads
// it and self-aborts if held. Sacrifices opacity.
func NewSLR(m *htm.Memory, l locks.Lock) *Engine {
	return newEngine(m, l, presetOptSLR)
}

// NewLazySub returns the DELIBERATELY UNSAFE lazy-subscription scheme, the
// adversary from Dice/Harris/Kogan/Lev/Moir (arXiv 1407.6968) that the
// modelcheck expected-fail campaign exists to break. It is SLR with its
// commit-time lock check peeked through a non-transactional escape: the
// check still aborts on a held lock, but the lock line never enters the
// read set, so a thread that acquires the lock between the check and the
// commit cannot doom the transaction, which then commits into the middle of
// a live critical section. With htm.Config.AbortOnDangerousWhileUnsubscribed
// every speculative attempt aborts with CauseDangerous (retry hint clear)
// and the section completes under the lock: slower, never wrong.
func NewLazySub(m *htm.Memory, l locks.Lock) *Engine {
	return newEngine(m, l, presetLazySub)
}

// NewSCM returns software-assisted conflict management (Figure 7) over the
// main lock: an aborted thread acquires aux non-transactionally and rejoins
// the speculative run, so conflicting threads serialize among themselves
// without disturbing non-conflicting speculators. The aux holder falls back
// to the main lock after MaxRetries failed retries. aux should be fair (the
// paper uses MCS) so the scheme inherits its starvation freedom.
func NewSCM(m *htm.Memory, main, aux locks.Lock, mode Mode) *Engine {
	pol := presetHLESCM
	if mode == OverSLR {
		pol = presetSLRSCM
	}
	e := newEngine(m, main, pol)
	e.aux = []locks.Lock{aux}
	return e
}

// NewGroupedSCM returns the refinement the paper leaves as future work (§6
// Remark, §8): groups fair MCS auxiliary locks instead of one. The abort
// status' conflict line picks the group, so threads that conflicted on
// unrelated data keep speculating in parallel, while threads fighting over
// the same line serialize exactly as in plain SCM.
func NewGroupedSCM(m *htm.Memory, main locks.Lock, mode Mode, groups, procs int) *Engine {
	pol := presetHLESCMGrouped
	if mode == OverSLR {
		pol = presetSLRSCMGrouped
	}
	e := newEngine(m, main, pol)
	e.aux = make([]locks.Lock, max(groups, 1))
	for i := range e.aux {
		e.aux[i] = locks.NewMCS(m, procs)
	}
	return e
}

// NewAdaptive returns the ck_elide-style policy family over l for procs
// threads, with the default config: retries are budgeted per abort class,
// and a thread whose budget runs out takes the lock and forfeits elision
// for a window of acquisitions, so a thread that keeps losing speculation
// stops paying for it. Use SetConfig to install a tuned config.
func NewAdaptive(m *htm.Memory, l locks.Elidable, mode Mode, procs int) *Engine {
	pol := &preset{name: SchemeNameAdaptiveHLE, kind: elidedAcquire, retry: adaptiveBudgets,
		cfg: DefaultAdaptiveConfig(), skip: make([]int, procs)}
	if mode == OverSLR {
		pol.name, pol.kind = SchemeNameAdaptiveSLR, commitCheck
	}
	return newEngine(m, l, pol)
}

// Name implements Scheme.
func (e *Engine) Name() string { return e.pol.name }

// Adaptive reports whether the engine runs the adaptive retry policy, the
// only one with a config.
func (e *Engine) Adaptive() bool { return e.pol.retry == adaptiveBudgets }

// Config returns the adaptive policy's active config.
func (e *Engine) Config() AdaptiveConfig { return e.pol.cfg }

// SetConfig installs a validated adaptive config. Call before the machine
// runs; changing budgets mid-run would make outcomes depend on wall
// progress.
func (e *Engine) SetConfig(cfg AdaptiveConfig) error {
	if !e.Adaptive() {
		return fmt.Errorf("core: scheme %s takes no adaptive config", e.Name())
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.pol.cfg = cfg
	return nil
}

// Critical implements Scheme. Each aborted attempt passes through the
// conflict manager, then the retry policy chooses between another attempt
// and the lock; every choice is a deterministic function of the abort
// statuses.
func (e *Engine) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	pol := e.pol
	var o Outcome
	// A budget that counts attempts and allows none never speculates.
	if pol.retry == lockOnly || pol.countsAttempts && e.MaxRetries < 1 {
		e.fallback(p, body, &o)
		return o
	}
	var rem [NumAbortClasses]int
	if pol.retry == adaptiveBudgets {
		o.ExhaustedClass = ClassNone
		if skip := &pol.skip[p.ID()]; *skip > 0 {
			// Inside a forfeit window: go straight to the lock
			// (ck_elide's stat->skip fast path).
			*skip--
			o.Forfeited = true
			o.ForfeitExited = *skip == 0
			e.fallback(p, body, &o)
			return o
		}
		rem = pol.cfg.Retry
	}
	waitFirst := e.waitsBeforeAttempt()
	held, heldSince := -1, uint64(0)
	for {
		if waitFirst {
			e.l.WaitUntilFree(p)
		}
		o.Attempts++
		st := e.attempt(p, body)
		if st.Committed {
			o.Speculative = true
			break
		}
		o.Aborts++
		o.LastCause = st.Cause
		if pol.retry == reexecute {
			if e.fallback(p, body, &o) {
				break
			}
			continue
		}
		// Serializing path (Figure 7, lines 17-26): hold the auxiliary lock
		// of the last conflict's group. A thread whose conflict moves to
		// another group migrates, releasing first, so it never holds two
		// and the dwell counts held time only.
		if e.aux != nil {
			if g := e.group(st); g != held {
				if held >= 0 {
					e.auxUnlock(p, held, heldSince, &o)
				}
				held, heldSince = g, e.auxLock(p, g)
				o.AuxUsed = true
			}
		}
		var retry bool
		if pol.retry == adaptiveBudgets {
			cl := ClassifyAbort(st)
			if retry = rem[cl] > 0; retry {
				rem[cl]--
			} else {
				// The class's budget is exhausted: open its forfeit window.
				pol.skip[p.ID()] = pol.cfg.Forfeit[cl]
				o.ForfeitEntered = true
				o.ExhaustedClass = cl
			}
		} else {
			// MaxRetries bounds the retries after the first abort or, for
			// presets that count attempts, every attempt.
			budget := e.MaxRetries
			if pol.countsAttempts {
				budget--
			}
			retry = o.Aborts <= budget && (st.Retry || pol.ignoresHint)
		}
		checksAtCommit := pol.kind == commitCheck || pol.kind == escapedCheck
		if checksAtCommit && (retry || pol.countsAttempts) && ClassifyAbort(st) == ClassBusy {
			// A non-speculative holder dooms the commit-time check; wait
			// for it to leave rather than burn an attempt that must fail.
			e.l.WaitUntilFree(p)
		}
		if !retry {
			e.fallback(p, body, &o)
			break
		}
	}
	if held >= 0 {
		e.auxUnlock(p, held, heldSince, &o)
	}
	return o
}

// waitsBeforeAttempt reports whether a thread waits for the lock to be free
// before each attempt. An attempt that reads the lock at its start is
// doomed while it is held, so startCheck always waits, and so does the
// adaptive policy rather than spend budget on a certain busy abort. Fixed
// HLE waits only over TTAS-protocol locks, as Figure 1's outer loop does:
// queue locks issue their XACQUIRE RMW at once, so a retry against an
// occupied queue burns an attempt, which is why naive retrying fails to
// rescue fair locks (§7.1). Commit-time checks never wait first.
func (e *Engine) waitsBeforeAttempt() bool {
	switch e.pol.kind {
	case startCheck:
		return true
	case elidedAcquire:
		return e.pol.retry == adaptiveBudgets || locks.TTASProtocol(e.l)
	}
	return false
}

// attempt runs the body once as a transaction of the preset's kind. It is
// the engine's only Atomic call.
func (e *Engine) attempt(p *sim.Proc, body func(c htm.Ctx)) htm.Status {
	return e.m.Atomic(p, func(tx *htm.Tx) {
		switch e.pol.kind {
		case elidedAcquire:
			l := e.l.(locks.Elidable)
			if ok, wait := l.SpecAcquire(tx); !ok {
				if e.pol.retry != reexecute {
					// A busy lock dooms the attempt: abort now and spend
					// the budget rather than spin in-transaction.
					tx.Abort(CodeLockBusy)
				}
				// Raw HLE spins on the lock transactionally until the
				// coherency abort arrives (Figure 1 dynamics).
				tx.Wait(wait)
			}
			body(ctx(e.m, p))
			l.SpecRelease(tx)
		case startCheck:
			if e.l.HeldTx(tx) {
				tx.Abort(CodeNonSpecRun)
			}
			body(ctx(e.m, p))
		case commitCheck:
			body(ctx(e.m, p))
			if e.l.HeldTx(tx) {
				tx.Abort(CodeSLRLockHeld)
			}
		case escapedCheck:
			body(ctx(e.m, p))
			// The lazy "subscription": the same check, peeked through an
			// escape, so the lock line stays out of the read set. This
			// line is what makes the scheme unsafe.
			held := true
			tx.Escaped(func() { held = e.l.HeldTx(tx) })
			if held {
				tx.Abort(CodeLockBusy)
			}
		}
	})
}

// fallback completes the section holding the main lock (§4's N operation)
// and reports whether it did. Raw HLE re-executes the acquire
// non-transactionally; over a TTAS-protocol lock that single TAS can fail,
// and the caller speculates again (Figure 1's software loop).
func (e *Engine) fallback(p *sim.Proc, body func(c htm.Ctx), o *Outcome) bool {
	o.Attempts++
	e.m.TraceLockWait(p)
	if e.pol.retry == reexecute {
		if !e.l.(locks.Elidable).AcquireNT(p) {
			return false
		}
	} else {
		e.l.Lock(p)
	}
	e.m.TraceLock(p)
	body(ctx(e.m, p))
	e.l.Unlock(p)
	e.m.TraceUnlock(p)
	return true
}

// group maps an abort status to the auxiliary lock that serializes its
// conflict community by hashing the conflicting cache line, the "abort
// information provided by the hardware" §8 identifies. Aborts without a
// location (spurious, capacity, explicit) use group 0.
func (e *Engine) group(st htm.Status) int {
	if st.Cause != htm.CauseConflict || st.ConflictLine < 0 {
		return 0
	}
	h := uint64(st.ConflictLine) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(e.aux)))
}

// auxLock takes auxiliary lock g and returns the clock it was taken at.
func (e *Engine) auxLock(p *sim.Proc, g int) uint64 {
	e.m.TraceAuxWait(p)
	e.aux[g].Lock(p)
	since := p.Clock()
	e.m.TraceAuxLock(p)
	return since
}

// auxUnlock releases auxiliary lock g, adding the time since it was taken
// to o.AuxDwell.
func (e *Engine) auxUnlock(p *sim.Proc, g int, since uint64, o *Outcome) {
	e.aux[g].Unlock(p)
	o.AuxDwell += p.Clock() - since
	e.m.TraceAuxUnlock(p)
}
