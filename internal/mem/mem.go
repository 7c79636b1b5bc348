// Package mem provides the simulated shared memory for the machine: a
// word-addressed store of int64 values grouped into cache lines, a bump
// allocator with a free list, and a registry of the procs parked on lines,
// used to model threads spinning on a location.
//
// mem knows nothing about transactions; the htm package layers conflict
// detection on top of these lines. All methods must be called from the
// currently running sim.Proc (the single-runner invariant makes plain,
// lock-free Go data safe here).
package mem

import (
	"fmt"

	"elision/internal/sim"
)

// Addr is a word address in simulated memory. Address 0 is reserved as the
// nil pointer; the allocator never returns it.
type Addr int64

// Nil is the null simulated pointer.
const Nil Addr = 0

// LineWords is the number of 8-byte words per cache line (64-byte lines).
const LineWords = 8

const lineShift = 3 // log2(LineWords)

// Store is the simulated physical memory.
type Store struct {
	words []int64
	// waiters is the registry of parked procs, one entry per (line, proc)
	// registration. A parked proc watches a handful of lines, so the
	// registry holds at most procs × watched lines entries however large
	// memory is, and the wakeup path on every visible store is a single
	// length test in the common case of nobody parked (speculative phases
	// park no one).
	waiters []waiter
	brk     Addr // bump-allocation frontier
	// hiWater is the highest allocation frontier this backing array has ever
	// reached. Simulated programs only write allocated words, so everything
	// at or above hiWater is zero; Reset scrubs only [0, hiWater) instead of
	// the whole array when a pooled Store is recycled.
	hiWater Addr
}

// NewStore creates a memory of the given size in words, rounded up to a
// whole number of lines.
func NewStore(words int) *Store {
	if words < LineWords {
		words = LineWords
	}
	lines := (words + LineWords - 1) / LineWords
	return &Store{
		words:   make([]int64, lines*LineWords),
		brk:     LineWords, // burn line 0 so Addr 0 stays nil
		hiWater: LineWords,
	}
}

// Reset returns the Store to the state NewStore(words) would produce,
// reusing the backing arrays when their capacity allows. Only the
// previously allocated region is scrubbed (words at or above the high-water
// frontier are zero by the Alloc discipline), so recycling a pooled Store
// costs O(allocated), not O(capacity). Must not be called while any sim
// Proc is parked on one of the Store's lines.
func (s *Store) Reset(words int) {
	if words < LineWords {
		words = LineWords
	}
	lines := (words + LineWords - 1) / LineWords
	n := lines * LineWords
	if cap(s.words) >= n {
		// The dirty region may extend past the new length when the previous
		// incarnation was larger; hiWater never exceeds the backing array.
		s.words = s.words[:cap(s.words)]
		clearWords(s.words[:s.hiWater])
		s.words = s.words[:n]
	} else {
		s.words = make([]int64, n)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	s.brk = LineWords
	s.hiWater = LineWords
}

// clearWords zeroes a word slice (compiled to a memclr).
func clearWords(w []int64) {
	for i := range w {
		w[i] = 0
	}
}

// Snapshot copies the allocated prefix of memory — the image a later
// Restore replays. The returned slice is detached from the Store.
func (s *Store) Snapshot() ([]int64, Addr) {
	img := make([]int64, s.brk)
	copy(img, s.words[:s.brk])
	return img, s.brk
}

// Restore overwrites memory with a snapshot taken on a Store of the same
// geometry: the image is copied over the front of memory, any previously
// allocated words beyond it are zeroed, and the allocation frontier is set
// to the snapshot's. The waiter registry is untouched (a Store being
// restored must have no parked procs). Restoring is byte-for-byte
// equivalent to replaying the allocations and stores that produced the
// snapshot.
func (s *Store) Restore(img []int64, brk Addr) {
	if int(brk) > len(s.words) {
		panic(fmt.Sprintf("mem: snapshot frontier %d exceeds store size %d", brk, len(s.words)))
	}
	if s.hiWater > Addr(len(img)) {
		clearWords(s.words[len(img):s.hiWater])
	}
	copy(s.words, img)
	s.brk = brk
	if brk > s.hiWater {
		s.hiWater = brk
	}
}

// Words returns the memory size in words.
func (s *Store) Words() int { return len(s.words) }

// Lines returns the memory size in cache lines.
func (s *Store) Lines() int { return len(s.words) >> lineShift }

// LineOf maps a word address to its cache-line index.
func LineOf(a Addr) int { return int(a >> lineShift) }

// check panics on wild addresses: simulated programs dereferencing garbage
// is a bug in this repository, not a recoverable condition.
func (s *Store) check(a Addr) {
	if a <= 0 || int(a) >= len(s.words) {
		panic(fmt.Sprintf("mem: wild address %d (memory has %d words)", a, len(s.words)))
	}
}

// Load reads a word with no coherency side effects. Transactional and
// non-transactional semantics (conflict detection, costs) live in htm.
func (s *Store) Load(a Addr) int64 {
	s.check(a)
	return s.words[a]
}

// StoreWord writes a word with no coherency side effects.
func (s *Store) StoreWord(a Addr, v int64) {
	s.check(a)
	s.words[a] = v
}

// Alloc returns n fresh words of zeroed memory. It never fails; running out
// of simulated memory panics, since benchmark sizing is static.
func (s *Store) Alloc(n int) Addr {
	if n <= 0 {
		panic("mem: Alloc of non-positive size")
	}
	a := s.brk
	s.brk += Addr(n)
	if int(s.brk) > len(s.words) {
		panic(fmt.Sprintf("mem: out of simulated memory (brk %d > %d words); size the Store larger", s.brk, len(s.words)))
	}
	if s.brk > s.hiWater {
		s.hiWater = s.brk
	}
	return a
}

// AllocLines returns n fresh cache lines, line-aligned. Data structures
// allocate nodes line-aligned so that distinct nodes never share a line:
// conflict granularity then matches node granularity, as it (mostly) does
// for heap allocators on real hardware.
func (s *Store) AllocLines(n int) Addr {
	if rem := s.brk % LineWords; rem != 0 {
		s.brk += LineWords - rem
	}
	return s.Alloc(n * LineWords)
}

// waiter is one registration: proc p parked on cache line line.
type waiter struct {
	line int
	p    *sim.Proc
}

// AddWaiter registers p as blocked on the line containing a. The caller must
// subsequently call p.Block; any write to the line wakes all its waiters.
// Registering twice on one line takes two registrations.
func (s *Store) AddWaiter(a Addr, p *sim.Proc) {
	s.waiters = append(s.waiters, waiter{LineOf(a), p})
}

// RemoveWaiter drops one registration of p on the line containing a, if
// any (used after a timeout wake, so a later store does not wake a proc
// that no longer waits).
func (s *Store) RemoveWaiter(a Addr, p *sim.Proc) {
	l := LineOf(a)
	for i, w := range s.waiters {
		if w.line == l && w.p == p {
			last := len(s.waiters) - 1
			s.waiters[i] = s.waiters[last]
			s.waiters[last] = waiter{}
			s.waiters = s.waiters[:last]
			return
		}
	}
}

// WakeWaiters wakes every proc blocked on the line containing a, as cause,
// with the given coherency latency, and drops their registrations. Called
// by htm on every visible store. Wake order does not matter: a wake only
// marks its target runnable.
func (s *Store) WakeWaiters(a Addr, by *sim.Proc, cause sim.WakeCause, latency uint64) {
	if len(s.waiters) == 0 {
		return
	}
	l := LineOf(a)
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if w.line == l {
			by.Wake(w.p, cause, latency)
		} else {
			kept = append(kept, w)
		}
	}
	clear(s.waiters[len(kept):])
	s.waiters = kept
}
