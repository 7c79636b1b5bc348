package core

import (
	"fmt"

	"elision/internal/htm"
	"elision/internal/locks"
)

// Lock and scheme names accepted by the factories (and used in benchmark
// output).
const (
	LockNameTTAS        = "ttas"
	LockNameTTASBackoff = "ttas-backoff"
	LockNameMCS         = "mcs"
	LockNameTicketHLE   = "ticket-hle"
	LockNameCLHHLE      = "clh-hle"

	SchemeNameNoLock     = "nolock"
	SchemeNameStandard   = "standard"
	SchemeNameHLE        = "hle"
	SchemeNameHLERetries = "hle-retries"
	SchemeNameHLESCM     = "hle-scm"
	SchemeNameOptSLR     = "opt-slr"
	SchemeNameSLRSCM     = "slr-scm"
	// Grouped-SCM variants (the §6 Remark extension), with 8 conflict
	// groups.
	SchemeNameHLESCMGrouped = "hle-scm-grouped"
	SchemeNameSLRSCMGrouped = "slr-scm-grouped"
	// Adaptive family (ck_elide-style per-abort-class budgets and forfeit
	// windows); built with DefaultAdaptiveConfig, tuned via
	// (*Engine).SetConfig.
	SchemeNameAdaptiveHLE = "adaptive-hle"
	SchemeNameAdaptiveSLR = "adaptive-slr"
	// LazySub: the deliberately unsafe lazy-subscription adversary
	// (commit-time lock check through a non-transactional escape; see
	// NewLazySub). Kept out of the benchmark roster's §7 ordering — it
	// exists to be broken by the modelcheck expected-fail campaign and
	// repaired by htm's AbortOnDangerousWhileUnsubscribed.
	SchemeNameLazySub = "lazysub"
)

// AdaptiveSchemeName reports whether name belongs to the adaptive family.
func AdaptiveSchemeName(name string) bool {
	return name == SchemeNameAdaptiveHLE || name == SchemeNameAdaptiveSLR
}

// GroupedSCMGroups is the auxiliary-lock count used by the factory's
// grouped-SCM schemes.
const GroupedSCMGroups = 8

// lockRoster maps every lock name BuildLock accepts, in roster order, to
// its constructor.
var lockRoster = []struct {
	name  string
	build func(hm *htm.Memory, procs int) locks.Elidable
}{
	{LockNameTTAS, func(hm *htm.Memory, _ int) locks.Elidable { return locks.NewTTAS(hm) }},
	{LockNameTTASBackoff, func(hm *htm.Memory, _ int) locks.Elidable { return locks.NewBackoffTTAS(hm) }},
	{LockNameMCS, func(hm *htm.Memory, procs int) locks.Elidable { return locks.NewMCS(hm, procs) }},
	{LockNameTicketHLE, func(hm *htm.Memory, procs int) locks.Elidable { return locks.NewTicketHLE(hm, procs) }},
	{LockNameCLHHLE, func(hm *htm.Memory, procs int) locks.Elidable { return locks.NewCLHHLE(hm, procs) }},
}

// schemeRoster maps every scheme name BuildScheme accepts, in roster order,
// to its preset. SCM presets get fair MCS auxiliary locks, as in the
// paper's evaluation.
var schemeRoster = []struct {
	name  string
	build func(hm *htm.Memory, l locks.Elidable, procs int) Scheme
}{
	{SchemeNameNoLock, func(hm *htm.Memory, _ locks.Elidable, _ int) Scheme { return NewNoLock(hm) }},
	{SchemeNameStandard, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme { return NewStandard(hm, l) }},
	{SchemeNameHLE, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme { return NewHLE(hm, l) }},
	{SchemeNameHLERetries, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme {
		return NewHLERetries(hm, l, DefaultMaxRetries)
	}},
	{SchemeNameHLESCM, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewSCM(hm, l, locks.NewMCS(hm, procs), OverHLE)
	}},
	{SchemeNameOptSLR, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme { return NewSLR(hm, l) }},
	{SchemeNameSLRSCM, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewSCM(hm, l, locks.NewMCS(hm, procs), OverSLR)
	}},
	{SchemeNameHLESCMGrouped, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewGroupedSCM(hm, l, OverHLE, GroupedSCMGroups, procs)
	}},
	{SchemeNameSLRSCMGrouped, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewGroupedSCM(hm, l, OverSLR, GroupedSCMGroups, procs)
	}},
	{SchemeNameAdaptiveHLE, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewAdaptive(hm, l, OverHLE, procs)
	}},
	{SchemeNameAdaptiveSLR, func(hm *htm.Memory, l locks.Elidable, procs int) Scheme {
		return NewAdaptive(hm, l, OverSLR, procs)
	}},
	{SchemeNameLazySub, func(hm *htm.Memory, l locks.Elidable, _ int) Scheme { return NewLazySub(hm, l) }},
}

// SchemeNames lists every name BuildScheme accepts, in roster order.
func SchemeNames() []string {
	names := make([]string, len(schemeRoster))
	for i, r := range schemeRoster {
		names[i] = r.name
	}
	return names
}

// LockNames lists every name BuildLock accepts, in roster order.
func LockNames() []string {
	names := make([]string, len(lockRoster))
	for i, r := range lockRoster {
		names[i] = r.name
	}
	return names
}

// BuildLock constructs a lock by name over the given memory.
func BuildLock(hm *htm.Memory, name string, procs int) (locks.Elidable, error) {
	for _, r := range lockRoster {
		if r.name == name {
			return r.build(hm, procs), nil
		}
	}
	return nil, fmt.Errorf("core: unknown lock %q", name)
}

// BuildScheme constructs a scheme by name over the given lock.
func BuildScheme(hm *htm.Memory, name string, l locks.Elidable, procs int) (Scheme, error) {
	for _, r := range schemeRoster {
		if r.name == name {
			return r.build(hm, l, procs), nil
		}
	}
	return nil, fmt.Errorf("core: unknown scheme %q", name)
}
