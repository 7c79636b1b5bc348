package modelcheck

import (
	"fmt"
	"sort"

	"elision/internal/core"
	"elision/internal/obs"
	"elision/internal/obs/causality"
)

// Oracle names, used in Violation.Oracle and the campaign summary.
const (
	OracleConfig          = "config"
	OracleSerializability = "serializability"
	OracleFinalState      = "final-state"
	OracleMutualExclusion = "mutual-exclusion"
	OracleCommitSafety    = "commit-safety"
	OracleAuxDiscipline   = "aux-discipline"
	OracleSCMStructure    = "scm-structure"
	OracleAbortBound      = "abort-bound"
	OracleProgress        = "progress"
	OracleConservation    = "conservation"
	OracleOpsAccounting   = "ops-accounting"
	// OracleForfeit is the adaptive-family window discipline: after a budget
	// exhaustion a thread's next Forfeit[class] acquisitions must run
	// forfeited (no speculation), the last one must close the window, and no
	// acquisition outside a window may report Forfeited.
	OracleForfeit = "forfeit-discipline"
	// OracleExpectation is the pseudo-oracle reported when an expected-fail
	// scheme (lazysub) never demonstrated any of its expected violations
	// within a campaign's budget — the campaign-level red flag that keeps
	// the expected-fail profile honest (a scheme that quietly became safe,
	// like the lazysub-eager mutant, must not pass as "no news is good
	// news").
	OracleExpectation = "expectation-unmet"
)

// Violation is one oracle failure observed in a run.
type Violation struct {
	// Oracle names the violated invariant (Oracle* constants).
	Oracle string `json:"oracle"`
	// Detail is the human-readable specifics, ending with the reproducer.
	Detail string `json:"detail"`
	// Expected is true when the run's scheme carries an expected-fail
	// profile covering this oracle: the violation is the scheme's
	// documented unsafety demonstrating itself (lazysub without the
	// hardware fix), not a checker regression. Expected violations never
	// redden a campaign; their ABSENCE does (OracleExpectation).
	Expected bool `json:"expected,omitempty"`
}

// profile captures which per-scheme oracles apply to a run. The checker must
// know what each scheme *promises*: raw HLE promises no abort bound at all,
// SCM promises every aborted operation passes through the serializing path,
// and only the single-auxiliary SCM variants promise global auxiliary
// exclusion.
type profile struct {
	// auxOnAbort: every operation with >= 1 abort must report AuxUsed (the
	// SCM serializing-path contract, Figure 7).
	auxOnAbort bool
	// auxGlobalExcl: at most one thread holds an auxiliary lock at any time
	// (single-aux SCM only; grouped SCM deliberately allows one holder per
	// group).
	auxGlobalExcl bool
	// abortBound returns the maximum aborts one operation may suffer before
	// the scheme's fallback guarantees completion, or -1 for unbounded (raw
	// HLE's TTAS loop can retry forever under contention).
	abortBound func(maxRetries int) int
	// attemptsExact: Stats.Attempts == Stats.Aborts + Stats.Ops. Raw HLE
	// over TTAS-family locks only guarantees >= (a failed non-transactional
	// TAS burns an attempt without an abort or a completion).
	attemptsExact bool
	// adaptive, when non-nil, is the parsed adaptive-family config; it arms
	// the forfeit-discipline oracle and generalizes abortBound from the flat
	// MaxRetries to the config's summed per-class budgets.
	adaptive *core.AdaptiveConfig
	// expectFail lists the oracles this scheme is EXPECTED to violate (in
	// deterministic order): the scheme is a documented adversary, and a
	// campaign must find at least one such violation or go red with
	// OracleExpectation. Violations of oracles outside this list are
	// ordinary (unexpected) failures. Empty for every safe scheme.
	expectFail []string
}

// expectsFail reports whether oracleName is in the profile's expected-fail
// set.
func (p profile) expectsFail(oracleName string) bool {
	for _, o := range p.expectFail {
		if o == oracleName {
			return true
		}
	}
	return false
}

// lazySubExpectedOracles are the invariants lazy subscription breaks: the
// direct commit-while-held (commit-safety) and the downstream corruption it
// causes (serializability of the observed histories and the containers'
// final state). Deliberately tight — a lazysub violation of any OTHER
// oracle (mutual exclusion, conservation, ...) is still a checker/scheme
// regression and reddens the campaign.
var lazySubExpectedOracles = []string{
	OracleCommitSafety, OracleSerializability, OracleFinalState,
}

func unbounded(int) int { return -1 }

// profileFor resolves the oracle profile for a case's scheme/lock
// combination. Unknown scheme names get the permissive profile (everything
// universal still applies: serializability, mutual exclusion, commit safety,
// conservation). Adaptive cases must carry a parseable ACfg — RunWith
// validates it before resolving the profile.
func profileFor(c Case) profile {
	scheme, lock := c.Scheme, c.Lock
	switch scheme {
	case core.SchemeNameStandard:
		return profile{abortBound: func(int) int { return 0 }, attemptsExact: true}
	case core.SchemeNameHLE:
		ttas := lock == core.LockNameTTAS || lock == core.LockNameTTASBackoff
		return profile{abortBound: unbounded, attemptsExact: !ttas}
	case core.SchemeNameHLERetries:
		return profile{abortBound: func(mr int) int { return mr + 1 }, attemptsExact: true}
	case core.SchemeNameOptSLR:
		return profile{abortBound: func(mr int) int { return mr }, attemptsExact: true}
	case core.SchemeNameLazySub:
		// SLR's loop shape, so SLR's bounds — but without the hardware fix
		// the scheme is the documented lazy-subscription adversary and its
		// safety oracles are expected to fire. With Case.HWFix the
		// dangerous-action extension repairs it and the profile is an
		// ordinary must-pass one.
		p := profile{abortBound: func(mr int) int { return mr }, attemptsExact: true}
		if !c.HWFix {
			p.expectFail = lazySubExpectedOracles
		}
		return p
	case core.SchemeNameHLESCM, core.SchemeNameSLRSCM:
		return profile{
			auxOnAbort:    true,
			auxGlobalExcl: true,
			abortBound:    func(mr int) int { return mr + 1 },
			attemptsExact: true,
		}
	case core.SchemeNameHLESCMGrouped, core.SchemeNameSLRSCMGrouped:
		return profile{
			auxOnAbort:    true,
			abortBound:    func(mr int) int { return mr + 1 },
			attemptsExact: true,
		}
	case core.SchemeNameAdaptiveHLE, core.SchemeNameAdaptiveSLR:
		cfg, err := core.ParseAdaptiveConfig(c.ACfg)
		if err != nil {
			// RunWith reports the config violation; hold the run to the
			// universal oracles only.
			return profile{abortBound: unbounded}
		}
		// The bound is the config's own worst case — the sum of every class's
		// budget plus the final disqualifying abort — not a function of the
		// case's flat MaxRetries.
		bound := cfg.MaxAborts()
		return profile{
			abortBound:    func(int) int { return bound },
			attemptsExact: true,
			adaptive:      &cfg,
		}
	default:
		return profile{abortBound: unbounded}
	}
}

// oracle is a sink of the collector's event stream: it forwards it to the
// causality engine, and runs the stream-order invariants: mutual exclusion
// on the main lock, per-thread balance (and, where promised, global
// exclusion) on the auxiliary locks, and SLR commit-safety.
//
// Soundness of stream-order checking: under the simulator's single-runner
// invariant events arrive in actual execution order, and every lock
// implementation's releasing store is the last access of its Unlock (yields
// happen before mutations), with TraceLock/TraceUnlock firing immediately
// after Lock/Unlock return with no intervening yield. So "acquire observed
// while holder != -1" is a real overlap, not an artifact of event skew.
type oracle struct {
	eng   *causality.Engine
	prof  profile
	repro string

	// onCommit, when set, fires synchronously on every transaction commit —
	// inside the same non-yielding stretch that published the write set, so
	// the callback's position in host execution IS the commit's position in
	// the serialization order. The run harness uses it to draw linearization
	// stamps for speculative operations.
	onCommit func(tid int)

	violations []Violation

	mainHolder int          // -1 when free
	auxHolder  int          // -1 when free (global exclusion check)
	auxHeld    map[int]bool // per-thread balance
	// conflictEdges counts aborts the causality engine promises an edge for
	// (conflict aborts with a known aborter).
	conflictEdges uint64
	commits       uint64
	ops           uint64
}

var _ obs.Sink = (*oracle)(nil)

func newOracle(prof profile, eng *causality.Engine, repro string) *oracle {
	return &oracle{
		eng:        eng,
		prof:       prof,
		repro:      repro,
		mainHolder: -1,
		auxHolder:  -1,
		auxHeld:    make(map[int]bool),
	}
}

func (o *oracle) fail(oracleName, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	o.violations = append(o.violations, Violation{
		Oracle: oracleName,
		Detail: fmt.Sprintf("%s [repro %s]", detail, o.repro),
	})
}

// Observe implements obs.Sink: each event is checked, then forwarded to
// the causality engine.
func (o *oracle) Observe(ev *obs.Event) {
	switch ev.Kind {
	case obs.KindTxCommit:
		o.commit(ev.When, ev.Tid)
	case obs.KindTxAbort:
		if ev.Cause == "conflict" && ev.ConflictTid >= 0 {
			o.conflictEdges++
		}
	case obs.KindLockAcquire, obs.KindLockRelease, obs.KindAuxAcquire, obs.KindAuxRelease:
		o.lock(ev)
	case obs.KindOp:
		o.ops++
	case obs.KindFinish:
		o.finish()
	}
	o.eng.Observe(ev)
}

// commit is the commit-safety oracle: no transaction may commit while
// another thread holds the main lock — every correct scheme either
// subscribes to the lock at start (HLE, SCM-over-HLE) or checks it at
// commit (SLR), so a non-speculative holder dooms or aborts every
// overlapping transaction. A commit observed mid-hold is exactly the
// lazy-subscription unsafety of Dice et al.
func (o *oracle) commit(when uint64, tid int) {
	o.commits++
	if o.onCommit != nil {
		o.onCommit(tid)
	}
	if o.mainHolder >= 0 && o.mainHolder != tid {
		o.fail(OracleCommitSafety,
			"proc %d committed a transaction at t=%d while proc %d held the main lock",
			tid, when, o.mainHolder)
	}
}

// lock is the mutual-exclusion state machine over held locks. Wait-phase
// events mark intent, not ownership, and never reach it.
func (o *oracle) lock(ev *obs.Event) {
	switch ev.Kind {
	case obs.KindLockAcquire:
		if o.mainHolder >= 0 {
			o.fail(OracleMutualExclusion,
				"proc %d acquired the main lock at t=%d while proc %d already held it",
				ev.Tid, ev.When, o.mainHolder)
		}
		o.mainHolder = ev.Tid
	case obs.KindLockRelease:
		if o.mainHolder != ev.Tid {
			o.fail(OracleMutualExclusion,
				"proc %d released the main lock at t=%d but the holder was %d",
				ev.Tid, ev.When, o.mainHolder)
		}
		o.mainHolder = -1
	case obs.KindAuxAcquire:
		if o.auxHeld[ev.Tid] {
			o.fail(OracleAuxDiscipline,
				"proc %d acquired an auxiliary lock at t=%d while already holding one",
				ev.Tid, ev.When)
		}
		o.auxHeld[ev.Tid] = true
		if o.prof.auxGlobalExcl {
			if o.auxHolder >= 0 {
				o.fail(OracleAuxDiscipline,
					"proc %d acquired the auxiliary lock at t=%d while proc %d held it",
					ev.Tid, ev.When, o.auxHolder)
			}
			o.auxHolder = ev.Tid
		}
	case obs.KindAuxRelease:
		if !o.auxHeld[ev.Tid] {
			o.fail(OracleAuxDiscipline,
				"proc %d released an auxiliary lock at t=%d without holding one",
				ev.Tid, ev.When)
		}
		delete(o.auxHeld, ev.Tid)
		if o.prof.auxGlobalExcl {
			if o.auxHolder != ev.Tid {
				o.fail(OracleAuxDiscipline,
					"proc %d released the auxiliary lock at t=%d but the holder was %d",
					ev.Tid, ev.When, o.auxHolder)
			}
			o.auxHolder = -1
		}
	}
}

// finish checks that no lock outlives the run.
func (o *oracle) finish() {
	if o.mainHolder >= 0 {
		o.fail(OracleMutualExclusion,
			"main lock still held by proc %d at run end", o.mainHolder)
	}
	leaked := make([]int, 0, len(o.auxHeld))
	for tid := range o.auxHeld {
		leaked = append(leaked, tid)
	}
	sort.Ints(leaked)
	for _, tid := range leaked {
		o.fail(OracleAuxDiscipline,
			"auxiliary lock still held by proc %d at run end", tid)
	}
}
