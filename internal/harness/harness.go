// Package harness drives the paper's benchmarks: it wires machines,
// memories, locks, schemes and data structures into measured workloads, and
// regenerates every figure of the evaluation section (Figures 2, 3, 4, 9,
// 10 via the data-structure benchmarks here; Figure 11 via internal/stamp).
//
// Invariants: each benchmark point is one self-contained simulated machine,
// so a Result is a bit-for-bit deterministic function of its DSConfig; the
// Runner may compute independent points on parallel host goroutines and
// memoize them without affecting any result (asserted end to end by the
// golden seed-digest tests in golden_test.go).
package harness

import (
	"fmt"
	"strconv"
	"strings"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/locks"
)

// LockID selects a lock implementation.
type LockID string

// Lock identifiers.
const (
	LockTTAS      LockID = "ttas"
	LockMCS       LockID = "mcs"
	LockTicketHLE LockID = "ticket-hle"
	LockCLHHLE    LockID = "clh-hle"
)

// SchemeID selects an execution scheme.
type SchemeID string

// Scheme identifiers (§7's six schemes plus the no-locking baseline).
const (
	SchemeNoLock     SchemeID = "nolock"
	SchemeStandard   SchemeID = "standard"
	SchemeHLE        SchemeID = "hle"
	SchemeHLERetries SchemeID = "hle-retries"
	SchemeHLESCM     SchemeID = "hle-scm"
	SchemeOptSLR     SchemeID = "opt-slr"
	SchemeSLRSCM     SchemeID = "slr-scm"
	// SchemeHLESCMGrouped is the §6-Remark extension: SCM with per-conflict-
	// location auxiliary lock groups.
	SchemeHLESCMGrouped SchemeID = "hle-scm-grouped"
	// SchemeSLRSCMGrouped is grouped SCM over SLR attempts.
	SchemeSLRSCMGrouped SchemeID = "slr-scm-grouped"
	// SchemeAdaptiveHLE / SchemeAdaptiveSLR are the ck_elide-style adaptive
	// family: per-abort-class retry budgets with forfeit windows, configured
	// per point via DSConfig.ACfg.
	SchemeAdaptiveHLE SchemeID = "adaptive-hle"
	SchemeAdaptiveSLR SchemeID = "adaptive-slr"
	// SchemeLazySub is the deliberately unsafe lazy-subscription scheme
	// (core.NewLazySub): SLR with an escaped, non-subscribing commit-time lock
	// check. It exists as the modelcheck adversary and is excluded from
	// AllSchemes (figures measure correct schemes); pair it with
	// DSConfig.HWFix to benchmark the hardware fix's cost.
	SchemeLazySub SchemeID = "lazysub"
)

// AllSchemes is §7's evaluation order.
var AllSchemes = []SchemeID{
	SchemeStandard, SchemeHLE, SchemeHLERetries, SchemeHLESCM, SchemeOptSLR, SchemeSLRSCM,
}

// Mix is an operation distribution over insert/delete/lookup, in percent.
type Mix struct {
	InsertPct int
	DeletePct int
}

// The paper's three contention mixes (§4, Figure 4).
var (
	// MixLookupOnly is "no contention": 100% lookups.
	MixLookupOnly = Mix{0, 0}
	// MixModerate is "moderate contention": 10% insert, 10% delete.
	MixModerate = Mix{10, 10}
	// MixExtensive is "extensive contention": 50% insert, 50% delete.
	MixExtensive = Mix{50, 50}
)

// Name renders a mix the way the paper labels it.
func (x Mix) Name() string {
	switch x {
	case MixLookupOnly:
		return "lookups-only"
	case MixModerate:
		return "20% updates"
	case MixExtensive:
		return "100% updates"
	default:
		return fmt.Sprintf("%d%%ins/%d%%del", x.InsertPct, x.DeletePct)
	}
}

// ParseMix parses a mix written "insertPct,deletePct" (the rest lookups):
// exactly two integers, each >= 0, summing to at most 100.
func ParseMix(s string) (Mix, error) {
	ins, del, _ := strings.Cut(s, ",")
	insPct, err1 := strconv.Atoi(ins)
	delPct, err2 := strconv.Atoi(del)
	if err1 != nil || err2 != nil || insPct < 0 || delPct < 0 || insPct+delPct > 100 {
		return Mix{}, fmt.Errorf("bad mix %q: want insertPct,deletePct, each >= 0, summing to at most 100", s)
	}
	return Mix{InsertPct: insPct, DeletePct: delPct}, nil
}

// Structure selects the benchmark data structure.
type Structure string

// Structures.
const (
	StructTree Structure = "rbtree"
	StructHash Structure = "hashtable"
)

// DSConfig describes one data-structure benchmark point. It is comparable,
// so results can be memoized across figures that share points.
type DSConfig struct {
	Structure    Structure
	Threads      int
	Size         int // steady-state element count; key domain is [0, 2*Size)
	Mix          Mix
	Scheme       SchemeID
	Lock         LockID
	BudgetCycles uint64 // virtual-cycle budget per thread
	SlotCycles   uint64 // when >0, sample per-slot stats (Figure 3)
	Seed         uint64
	Quantum      uint64
	// Cores enables the SMT model (0 = one proc per core). The paper's
	// testbed maps to Cores=4 with Threads=8.
	Cores int
	// ACfg is the adaptive-family configuration in its canonical string form
	// (core.AdaptiveConfig.String, e.g. "5/2,16/5,0/8,3/3"). Empty means the
	// default config. Ignored by non-adaptive schemes; kept a string so
	// DSConfig stays comparable for memoization.
	ACfg string
	// HWFix arms htm.Config.AbortOnDangerousWhileUnsubscribed for the point:
	// the lazy-subscription hardware fix. Only lazysub behaves differently
	// under it (its speculative attempts abort and the lock path carries the
	// load); correct schemes never take a dangerous action.
	HWFix bool
}

// Slot is one time-slot sample for Figure 3.
type Slot struct {
	Ops     uint64
	NonSpec uint64
}

// Result is the outcome of one benchmark point.
type Result struct {
	Config DSConfig
	Stats  core.Stats
	// Cycles is the virtual time the run actually covered.
	Cycles uint64
	// Slots is the per-slot timeline when Config.SlotCycles > 0.
	Slots []Slot
	// LockLines is the set of cache lines the point's lock protocol
	// occupies (nil when the lock cannot report them). Observed runs use it
	// to annotate the hot-line profiler's table and to assert whether the
	// lock's line is what transactions are aborting on.
	LockLines []int
}

// HasLockLine reports whether line belongs to the result's lock footprint.
func (r Result) HasLockLine(line int) bool {
	for _, l := range r.LockLines {
		if l == line {
			return true
		}
	}
	return false
}

// Throughput returns operations per million virtual cycles.
func (r Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Stats.Ops) * 1e6 / float64(r.Cycles)
}

// buildLock constructs the lock for a point.
func buildLock(hm *htm.Memory, id LockID, procs int) locks.Elidable {
	l, err := core.BuildLock(hm, string(id), procs)
	if err != nil {
		panic(err)
	}
	return l
}

// buildScheme constructs the scheme for a point.
func buildScheme(hm *htm.Memory, id SchemeID, l locks.Elidable, procs int) core.Scheme {
	s, err := core.BuildScheme(hm, string(id), l, procs)
	if err != nil {
		panic(err)
	}
	return s
}

// memoryWords sizes simulated memory for a point: room for 2×Size live
// nodes, per-thread arena churn, hash buckets and slack.
func memoryWords(cfg DSConfig) int {
	nodes := 2*cfg.Size + cfg.Threads*64*8 + 4096
	words := nodes * 8
	if cfg.Structure == StructHash {
		words += bucketCount(cfg.Size) * 8
	}
	return words + 1<<16
}

// bucketCount picks the hash-table geometry for a target size.
func bucketCount(size int) int {
	b := 64
	for b < size {
		b <<= 1
	}
	return b
}

// dataStructure is the operation interface shared by both benchmarks.
type dataStructure interface {
	Insert(ac htm.Accessor, key, val int64) bool
	Delete(ac htm.Accessor, key int64) bool
	Lookup(ac htm.Accessor, key int64) (int64, bool)
}
