package obs

import "fmt"

// Kind classifies an Event.
type Kind uint8

// Event kinds. The seven swimlane kinds come first, numbered 1–7: the
// swimlane tracer (internal/trace) records exactly those, and its digests
// hash the number.
const (
	// KindTxBegin marks a speculative attempt's start (XBEGIN retired).
	KindTxBegin Kind = iota + 1
	// KindTxCommit marks a speculative attempt's commit; ReadLines and
	// WriteLines carry the committed set sizes.
	KindTxCommit
	// KindTxAbort marks a speculative attempt's abort; the abort payload is
	// set.
	KindTxAbort
	// KindLockAcquire / KindLockRelease are a non-speculative main-lock
	// acquisition (the lemming trigger) and its release.
	KindLockAcquire
	KindLockRelease
	// KindAuxAcquire / KindAuxRelease are an SCM auxiliary-lock acquisition
	// (serializing-path entry; the dwell starts here) and its release.
	KindAuxAcquire
	KindAuxRelease
	// KindLockWait / KindAuxWait mark the start of a blocking main- or
	// auxiliary-lock acquisition; the matching acquire follows once the lock
	// is held. They mark intent, not ownership: sinks tracking who holds a
	// lock ignore them.
	KindLockWait
	KindAuxWait
	// KindOp marks a completed critical section, sealing the attempt chain
	// its proc's preceding events belong to; the op payload is set.
	KindOp
	// KindLockLines lists, in Lines, the cache lines the run's lock protocol
	// occupies. It arrives before the run starts, when known.
	KindLockLines
	// KindFinish marks the end of the run; When is the covered cycles.
	KindFinish
)

// String implements fmt.Stringer (chain chronicles print these names).
func (k Kind) String() string {
	switch k {
	case KindTxBegin:
		return "tx-begin"
	case KindTxCommit:
		return "commit"
	case KindTxAbort:
		return "abort"
	case KindLockAcquire:
		return "lock-acquire"
	case KindLockRelease:
		return "lock-release"
	case KindAuxAcquire:
		return "aux-acquire"
	case KindAuxRelease:
		return "aux-release"
	case KindLockWait:
		return "lock-wait"
	case KindAuxWait:
		return "aux-wait"
	case KindOp:
		return "op"
	case KindLockLines:
		return "lock-lines"
	case KindFinish:
		return "finish"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one record of a run's event stream: the kind, the emitting
// proc's virtual time and id, and the payload of its kind. Fields outside
// the kind's payload are zero.
type Event struct {
	Kind Kind
	// When is the emitting proc's virtual time; for KindFinish, the covered
	// cycles.
	When uint64
	// Tid is the emitting proc.
	Tid int

	// ReadLines / WriteLines are the read- and write-set sizes in cache
	// lines at the commit or abort (KindTxCommit, KindTxAbort).
	ReadLines, WriteLines int

	// Abort payload (KindTxAbort). Cause is the abort cause's name
	// (htm.Cause.String()) and Arg its number, the swimlane's argument.
	Cause string
	Arg   int64
	// ConflictLine is the cache line the dooming conflict happened on, or -1
	// when the abort carries no location.
	ConflictLine int
	// ConflictTid is the aborter, the proc whose access doomed the victim, or
	// -1 when unknown.
	ConflictTid int
	// ConflictNT is true when the dooming access was non-transactional: a
	// real lock acquisition or a lock holder's plain accesses, the roots of
	// fallback-induced cascades.
	ConflictNT bool
	// ConflictWhen is the aborter's virtual time at the dooming access
	// (before When: the victim observes the doom at its next step).
	ConflictWhen uint64
	// Code is the XABORT payload of an explicit abort (core's
	// CodeSLRLockHeld/CodeNonSpecRun/CodeLockBusy), 0 otherwise, which lets
	// sinks classify lock-induced aborts the way the adaptive policy does.
	Code int

	// Op payload (KindOp). Start is the proc's virtual time entering the
	// critical section; When is the time it completed.
	Start uint64
	// Spec is true when the section committed speculatively.
	Spec bool
	// Attempts counts executions of the body (speculative and not); Aborts
	// counts the failed speculative ones.
	Attempts, Aborts int
	// AuxUsed / AuxDwell describe the SCM serializing path: whether it was
	// entered and for how many cycles auxiliary locks were held.
	AuxUsed  bool
	AuxDwell uint64
	// Forfeited / ForfeitEntered / ForfeitExited are the adaptive-policy
	// facets: ran inside a forfeit window / opened one / closed one.
	Forfeited, ForfeitEntered, ForfeitExited bool
	// ExhaustedClass names the abort class whose retry budget ran out (""
	// unless ForfeitEntered).
	ExhaustedClass string

	// Lines is the lock-protocol cache lines (KindLockLines).
	Lines []int
}

// Sink consumes a run's event stream. Calls follow the simulator's
// single-runner invariant: they arrive serialized and in near-monotone
// virtual-time order (within one scheduler quantum). The event belongs to
// the emitter and is reused for the next emission, so a sink neither
// modifies it nor keeps the pointer.
type Sink interface {
	Observe(ev *Event)
}
