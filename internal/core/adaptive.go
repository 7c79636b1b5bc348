package core

import (
	"fmt"
	"strconv"
	"strings"

	"elision/internal/htm"
)

// AbortClass buckets abort causes the way production elision configs do
// (concurrencykit's ck_elide_config): each class carries its own retry
// budget and forfeit window, because the right reaction differs — a
// conflict may resolve on retry, a busy lock resolves when the holder
// leaves, a capacity abort never resolves by retrying.
type AbortClass int8

// Abort classes, in the canonical config-string order.
const (
	// ClassConflict is a data-conflict (coherency) abort.
	ClassConflict AbortClass = iota
	// ClassBusy is a lock-induced abort: the attempt observed (or would have
	// committed against) a held main lock — CodeLockBusy, CodeNonSpecRun and
	// CodeSLRLockHeld explicit aborts.
	ClassBusy
	// ClassCapacity is a read/write-set overflow. Retrying cannot shrink the
	// footprint, so its retry budget is usually 0.
	ClassCapacity
	// ClassOther collects everything else: spurious aborts, interrupt
	// aborts, HLE-restore mismatches and unrecognized explicit codes.
	ClassOther
)

// NumAbortClasses is the number of distinct AbortClass values.
const NumAbortClasses = 4

// ClassNone marks "no class": the zero Outcome of a non-adaptive scheme.
const ClassNone AbortClass = -1

// String implements fmt.Stringer (metric label values).
func (c AbortClass) String() string {
	switch c {
	case ClassConflict:
		return "conflict"
	case ClassBusy:
		return "busy"
	case ClassCapacity:
		return "capacity"
	case ClassOther:
		return "other"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ClassifyAbort maps an abort status to its adaptive policy class.
func ClassifyAbort(st htm.Status) AbortClass {
	switch st.Cause {
	case htm.CauseConflict:
		return ClassConflict
	case htm.CauseCapacity:
		return ClassCapacity
	case htm.CauseExplicit:
		switch st.Code {
		case CodeSLRLockHeld, CodeNonSpecRun, CodeLockBusy:
			return ClassBusy
		}
		return ClassOther
	case htm.CauseDangerous:
		// The lazy-subscription fix's abort. Not ClassBusy: under the fix
		// the abort recurs on every attempt regardless of lock state, so
		// waiting for the holder buys nothing — let the other-class budget
		// (usually small) route the thread to the fallback quickly.
		return ClassOther
	default:
		return ClassOther
	}
}

// AdaptiveConfig parameterizes the adaptive scheme family, mirroring
// ck_elide_config: per-abort-class speculative retry budgets and forfeit
// windows. When one acquisition exhausts the retry budget of the class its
// aborts keep landing in, the thread takes the fallback lock and *forfeits*
// — skips elision entirely, going straight to the lock — for the next
// Forfeit[class] acquisitions.
type AdaptiveConfig struct {
	// Retry[c] is how many extra speculative attempts one acquisition may
	// spend on class-c aborts before giving up (>= 0).
	Retry [NumAbortClasses]int
	// Forfeit[c] is how many subsequent acquisitions skip elision after an
	// acquisition exhausted class c's retry budget (>= 1; a window always
	// covers at least the next acquisition).
	Forfeit [NumAbortClasses]int
}

// DefaultAdaptiveConfig is the ck_elide-inspired default, scaled to the
// simulator (every busy retry burns a whole transaction here, so the busy
// budget is far below ck_elide's 256 spin-loop retries).
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Retry:   [NumAbortClasses]int{5, 16, 0, 3},
		Forfeit: [NumAbortClasses]int{2, 5, 8, 3},
	}
}

// String renders the canonical config string: four retry/forfeit pairs in
// conflict,busy,capacity,other order, e.g. "5/2,16/5,0/8,3/3".
// String and ParseAdaptiveConfig round-trip exactly.
func (c AdaptiveConfig) String() string {
	var b strings.Builder
	for i := 0; i < NumAbortClasses; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d/%d", c.Retry[i], c.Forfeit[i])
	}
	return b.String()
}

// Validate rejects configs outside the scheme's envelope: negative retry
// budgets and zero-length (or negative) forfeit windows.
func (c AdaptiveConfig) Validate() error {
	for i := 0; i < NumAbortClasses; i++ {
		cl := AbortClass(i)
		if c.Retry[i] < 0 {
			return fmt.Errorf("core: adaptive config: %s retry budget must be >= 0, got %d", cl, c.Retry[i])
		}
		if c.Forfeit[i] < 1 {
			return fmt.Errorf("core: adaptive config: %s forfeit window must be >= 1, got %d", cl, c.Forfeit[i])
		}
	}
	return nil
}

// MaxAborts is the largest number of aborts one acquisition can suffer
// before the scheme's fallback guarantees completion: every abort either
// consumes one unit of some class's budget or, finding its class exhausted,
// is the final abort before the lock is taken. This is the bound the
// modelcheck abort-bound oracle holds the family to.
func (c AdaptiveConfig) MaxAborts() int {
	sum := 1
	for _, r := range c.Retry {
		sum += r
	}
	return sum
}

// ParseAdaptiveConfig decodes the canonical "r/f,r/f,r/f,r/f" form
// (conflict,busy,capacity,other) and validates it.
func ParseAdaptiveConfig(s string) (AdaptiveConfig, error) {
	var c AdaptiveConfig
	parts := strings.Split(s, ",")
	if len(parts) != NumAbortClasses {
		return c, fmt.Errorf("core: adaptive config %q: want %d retry/forfeit pairs (conflict,busy,capacity,other), got %d",
			s, NumAbortClasses, len(parts))
	}
	for i, part := range parts {
		r, f, ok := strings.Cut(part, "/")
		if !ok {
			return c, fmt.Errorf("core: adaptive config %q: pair %q is not retry/forfeit", s, part)
		}
		var err error
		if c.Retry[i], err = strconv.Atoi(r); err != nil {
			return c, fmt.Errorf("core: adaptive config %q: bad %s retry %q", s, AbortClass(i), r)
		}
		if c.Forfeit[i], err = strconv.Atoi(f); err != nil {
			return c, fmt.Errorf("core: adaptive config %q: bad %s forfeit %q", s, AbortClass(i), f)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}
