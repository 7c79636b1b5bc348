package htm

import (
	"testing"
	"unsafe"

	"elision/internal/mem"
	"elision/internal/sim"
)

// refTx is the reference model of one live transaction: plain map-based
// sets and values, maintained by the test from the accesses it issues.
type refTx struct {
	reads, writes map[int]bool
	buffered      map[mem.Addr]int64       // last value stored to each word (loads hit the write buffer)
	elided        map[mem.Addr]refIllusion // XACQUIRE-elided words (loads hit the illusion)
	subscribed    bool
}

// refIllusion is an elided word's value before elision and the illusion
// the transaction sees in its place.
type refIllusion struct{ orig, cur int64 }

func newRefTx() *refTx {
	return &refTx{
		reads:    make(map[int]bool),
		writes:   make(map[int]bool),
		buffered: make(map[mem.Addr]int64),
		elided:   make(map[mem.Addr]refIllusion),
	}
}

// want is the value a transactional load of a must return: the
// transaction's last store to the word, else the elided word's illusion,
// else the committed value.
func (r *refTx) want(tr *membershipTrace, a mem.Addr) int64 {
	if v, ok := r.buffered[a]; ok {
		return v
	}
	if e, ok := r.elided[a]; ok {
		return e.cur
	}
	return tr.committed[a]
}

// membershipTrace is one seeded random run over a small Memory and the
// reference state the test keeps beside it.
type membershipTrace struct {
	t      *testing.T
	seed   uint64
	hm     *Memory
	base   mem.Addr // first data line
	nLines int      // data lines from base
	lock   mem.Addr // the fallback lock word (its line is the subscription line)
	subs   map[int]bool
	ref    []*refTx // per proc; nil outside a transaction
	holder int      // proc in a fallback-holder episode, or -1
	hReads map[int]bool
	// committed mirrors the globally visible memory: non-transactional
	// stores and commits update it as they happen. Procs yield only inside
	// an Advance, never between a store taking effect and the mirror's
	// update, so it always equals memory when a proc resumes.
	committed map[mem.Addr]int64
	failed    bool
}

// fail reports the first divergence of a run; later checks are skipped.
// Procs run on their own goroutines, so this must not be t.Fatalf.
func (tr *membershipTrace) fail(format string, args ...any) {
	tr.t.Helper()
	tr.failed = true
	tr.t.Errorf("seed %d: "+format, append([]any{tr.seed}, args...)...)
}

func (tr *membershipTrace) addr(p *sim.Proc) mem.Addr {
	return tr.base + mem.Addr(p.RandN(uint64(tr.nLines)))*mem.LineWords + mem.Addr(p.RandN(mem.LineWords))
}

// check compares every live transaction's per-line membership, member
// lists and subscription with the reference, and the fallback marks with
// theirs. The write rule is exact for a transaction that is not doomed; a
// doomed one may have lost write lines to the access that doomed it.
func (tr *membershipTrace) check(where string) {
	tr.t.Helper()
	if tr.failed {
		return
	}
	for q, r := range tr.ref {
		if r == nil {
			continue
		}
		tx := tr.hm.cur[q]
		if tx == nil {
			tr.fail("%s: proc %d has a reference transaction but none is live", where, q)
			return
		}
		me := uint64(1) << q
		for l := range tr.hm.meta {
			lm := tr.hm.meta[l]
			if got := lm.readers&me != 0; got != r.reads[l] {
				tr.fail("%s: proc %d line %d: readers bit %v, reference %v", where, q, l, got, r.reads[l])
				return
			}
			owns := int(lm.writer) == q
			if owns && !r.writes[l] || !tx.doomed && owns != r.writes[l] {
				tr.fail("%s: proc %d line %d: writer %d, reference write %v (doomed %v)",
					where, q, l, lm.writer, r.writes[l], tx.doomed)
				return
			}
		}
		if !sameSet(tx.readLines, r.reads) || !sameSet(tx.writeLines, r.writes) {
			tr.fail("%s: proc %d member lists %v/%v, reference %v/%v", where, q, tx.readLines, tx.writeLines, r.reads, r.writes)
			return
		}
		if tx.subscribed != r.subscribed {
			tr.fail("%s: proc %d subscribed %v, reference %v", where, q, tx.subscribed, r.subscribed)
			return
		}
	}
	for l := range tr.hm.meta {
		if lm := tr.hm.meta[l]; lm.subLine != tr.subs[l] || lm.holderRead != tr.hReads[l] {
			tr.fail("%s: line %d marks sub=%v holderRead=%v, reference %v/%v",
				where, l, lm.subLine, lm.holderRead, tr.subs[l], tr.hReads[l])
			return
		}
	}
}

// sameSet reports whether list holds exactly set's members, once each.
func sameSet(list []int, set map[int]bool) bool {
	seen := make(map[int]bool, len(list))
	for _, l := range list {
		if !set[l] || seen[l] {
			return false
		}
		seen[l] = true
	}
	return len(list) == len(set)
}

// checkClean asserts p's transaction left no readers bit or writer id.
func (tr *membershipTrace) checkClean(p *sim.Proc) {
	tr.t.Helper()
	me := uint64(1) << p.ID()
	for l, lm := range tr.hm.meta {
		if !tr.failed && (lm.readers&me != 0 || int(lm.writer) == p.ID()) {
			tr.fail("proc %d left line %d behind after Atomic (readers %b, writer %d)", p.ID(), l, lm.readers, lm.writer)
		}
	}
}

// checkLoad compares a load's result with the reference's prediction.
func (tr *membershipTrace) checkLoad(p *sim.Proc, what string, a mem.Addr, got, want int64) {
	tr.t.Helper()
	if !tr.failed && got != want {
		tr.fail("proc %d: %s of word %d returned %d, reference %d", p.ID(), what, a, got, want)
	}
}

// storeNT issues a non-transactional store and mirrors it.
func (tr *membershipTrace) storeNT(p *sim.Proc, a mem.Addr, v int64) {
	tr.hm.StoreNT(p, a, v)
	tr.committed[a] = v
}

// read records an addRead of a's line: subscription, then membership.
func (r *refTx) read(tr *membershipTrace, a mem.Addr) {
	l := mem.LineOf(a)
	r.reads[l] = true
	if tr.subs[l] {
		r.subscribed = true
	}
}

// access issues one random transactional access, mirrors it in r and
// checks the value a load returns.
func (tr *membershipTrace) access(p *sim.Proc, tx *Tx, r *refTx) {
	switch c := p.RandN(20); {
	case c < 8:
		// Mostly data words; now and then the lock word, whose load sees
		// the illusion while it is elided.
		a := tr.addr(p)
		if c == 7 {
			a = tr.lock
		}
		v := tx.Load(a)
		tr.checkLoad(p, "transactional load", a, v, r.want(tr, a))
		if _, ok := r.buffered[a]; !ok {
			if _, ok := r.elided[a]; !ok {
				r.read(tr, a)
			}
		}
	case c < 13:
		a, v := tr.addr(p), int64(p.RandN(1000))
		tx.Store(a, v)
		r.writes[mem.LineOf(a)] = true
		r.buffered[a] = v
	case c < 16:
		e, ok := r.elided[tr.lock]
		old := tx.ElideRMW(tr.lock, func(old int64) int64 { return old + 1 })
		if !ok {
			// The first XACQUIRE reads the committed value after its charge.
			e = refIllusion{orig: tr.committed[tr.lock], cur: tr.committed[tr.lock]}
		}
		tr.checkLoad(p, "XACQUIRE read", tr.lock, old, e.cur)
		if !ok {
			r.read(tr, tr.lock)
		}
		e.cur++
		r.elided[tr.lock] = e
	case c < 17:
		if e, ok := r.elided[tr.lock]; ok {
			tx.ReleaseStore(tr.lock, e.orig)
			e.cur = e.orig
			r.elided[tr.lock] = e
		}
	case c < 18:
		// An escape load reads committed memory and leaves no trace.
		tx.Escaped(func() {
			a := tr.addr(p)
			v := tx.Load(a)
			tr.checkLoad(p, "escape load", a, v, tr.committed[a])
		})
	case c < 19:
		// Flat nesting extends the outer transaction.
		tr.hm.Atomic(p, func(inner *Tx) {
			a := tr.addr(p)
			v := inner.Load(a)
			tr.checkLoad(p, "nested load", a, v, r.want(tr, a))
			if _, ok := r.buffered[a]; !ok {
				r.read(tr, a)
			}
		})
	default:
		tx.Abort(int(p.RandN(256)))
	}
}

// transaction runs one random Atomic on p, checking after every access,
// and then checks what it published: a commit every buffered word's last
// value, an abort none of them.
func (tr *membershipTrace) transaction(p *sim.Proc) {
	id := p.ID()
	n := 1 + p.RandN(10)
	var r *refTx
	st := tr.hm.Atomic(p, func(tx *Tx) {
		r = newRefTx()
		tr.ref[id] = r
		// Runs before Atomic's commit or abort handling, which may yield
		// the token after the metadata is scrubbed.
		defer func() { tr.ref[id] = nil }()
		for j := uint64(0); j < n; j++ {
			tr.access(p, tx, r)
			tr.check("after a transactional access")
			p.Advance(p.RandN(40))
		}
	})
	if st.Committed {
		for a, v := range r.buffered {
			tr.committed[a] = v
		}
	}
	for a := range r.buffered {
		if got := tr.hm.Store().Load(a); !tr.failed && got != tr.committed[a] {
			tr.fail("proc %d: word %d holds %d after an Atomic with status %+v, reference %d",
				id, a, got, st, tr.committed[a])
		}
	}
	tr.checkClean(p)
	tr.check("after Atomic")
}

// holderEpisode is a fallback path: acquire the lock non-transactionally,
// read and write a few lines, release.
func (tr *membershipTrace) holderEpisode(p *sim.Proc) {
	tr.holder = p.ID()
	tr.storeNT(p, tr.lock, 1)
	tr.hm.TraceLock(p)
	tr.hReads = make(map[int]bool)
	tr.check("after TraceLock")
	for j := p.RandN(6); j > 0; j-- {
		a := tr.addr(p)
		if p.RandN(2) == 0 {
			v := tr.hm.LoadNT(p, a)
			tr.checkLoad(p, "holder load", a, v, tr.committed[a])
			if tr.hm.fixDangerous {
				tr.hReads[mem.LineOf(a)] = true
			}
		} else {
			tr.storeNT(p, a, int64(p.RandN(1000)))
		}
		tr.check("after a holder access")
		p.Advance(p.RandN(60))
	}
	tr.hm.TraceUnlock(p)
	tr.storeNT(p, tr.lock, 0)
	tr.holder = -1
	tr.check("after TraceUnlock")
}

// TestMembershipMatchesReference drives one small Memory, Reset between
// runs, through seeded random traces (see runMembershipTrace) and checks
// every access against a map-based reference: each live transaction's
// per-line membership after every access, what every load returns, and
// what every Atomic leaves in memory.
func TestMembershipMatchesReference(t *testing.T) {
	mach := sim.MustNew(sim.Config{Procs: traceProcs, Seed: 1})
	hm := NewMemory(mach, Config{Words: 8 * mem.LineWords})
	for seed := uint64(1); seed <= 60; seed++ {
		if !runMembershipTrace(t, mach, hm, seed) {
			return
		}
	}
}

// FuzzMembershipTrace runs the same traces over arbitrary seeds, each on a
// freshly built Memory; the test's seeds are the corpus. Run with
// `go test -run '^$' -fuzz FuzzMembershipTrace ./internal/htm`.
func FuzzMembershipTrace(f *testing.F) {
	for seed := uint64(1); seed <= 60; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		mach := sim.MustNew(sim.Config{Procs: traceProcs, Seed: 1})
		runMembershipTrace(t, mach, NewMemory(mach, Config{Words: 8 * mem.LineWords}), seed)
	})
}

// traceProcs is the number of procs a membership trace runs.
const traceProcs = 4

// runMembershipTrace resets mach and hm for one seeded random trace and
// runs it: transactional loads, stores, HLE elisions and releases, escapes,
// nested and explicitly aborted transactions; non-transactional stores and
// fallback-holder episodes from other procs; small read/write capacities;
// both policies; and the lazy-subscription fix with subscription lines.
// After every access each live transaction's per-line membership must equal
// a map-based reference set. Every load must return what the reference
// predicts: a transactional one (nested ones included) the transaction's
// last store to the word, else the elided word's illusion, else the
// committed value; an escape or holder load the committed value. After
// every Atomic the proc must have left no readers bit or writer id behind,
// a commit must have published each stored word's last value and an abort
// none of them. It reports whether the trace passed.
func runMembershipTrace(t *testing.T, mach *sim.Machine, hm *Memory, seed uint64) bool {
	t.Helper()
	lines := 16 + int(seed*7%49) // 16..64 lines, shrinking and growing
	cost := testCost()
	if seed%4 == 0 {
		cost.SpuriousDenom = 40
	}
	cfg := Config{
		Words:                             lines * mem.LineWords,
		Cost:                              cost,
		MaxReadLines:                      2 + int(seed%5),
		MaxWriteLines:                     1 + int(seed%3),
		Policy:                            Policy(seed % 2),
		AbortOnDangerousWhileUnsubscribed: seed%3 != 0,
	}
	if err := mach.Reset(sim.Config{Procs: traceProcs, Seed: seed, Quantum: 16}); err != nil {
		t.Fatal(err)
	}
	hm.Reset(mach, cfg)
	st := hm.Store()
	lock := st.AllocLines(1)
	base := st.AllocLines(lines - 2)
	tr := &membershipTrace{
		t: t, seed: seed, hm: hm, base: base, nLines: lines - 2, lock: lock,
		subs: make(map[int]bool), ref: make([]*refTx, traceProcs), holder: -1, hReads: make(map[int]bool),
		committed: make(map[mem.Addr]int64),
	}
	// Re-registration must clear the previous marks.
	hm.SetSubscriptionLines([]int{mem.LineOf(base), mem.LineOf(base) + 1})
	if seed%5 != 0 {
		tr.subs[mem.LineOf(lock)] = true
		if seed%2 == 0 {
			tr.subs[mem.LineOf(base)+2] = true
		}
	}
	var sub []int
	for l := range tr.subs {
		sub = append(sub, l)
	}
	hm.SetSubscriptionLines(sub)
	tr.check("after SetSubscriptionLines")

	for i := 0; i < traceProcs; i++ {
		mach.Go(func(p *sim.Proc) {
			for k := 0; k < 40; k++ {
				switch c := p.RandN(10); {
				case c < 7:
					tr.transaction(p)
				case c < 9:
					tr.storeNT(p, tr.addr(p), int64(p.RandN(1000)))
					tr.check("after a non-transactional store")
				default:
					if tr.holder < 0 {
						tr.holderEpisode(p)
					}
				}
				p.Advance(p.RandN(50))
			}
		})
	}
	if err := mach.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if tr.failed {
		return false
	}
	for l, lm := range hm.meta {
		if lm.readers != 0 || lm.writer != -1 {
			t.Errorf("seed %d: line %d still tracked after the run (readers %b, writer %d)", seed, l, lm.readers, lm.writer)
			return false
		}
	}
	for a := lock; a < base+mem.Addr(tr.nLines*mem.LineWords); a++ {
		if got := st.Load(a); got != tr.committed[a] {
			t.Errorf("seed %d: word %d holds %d after the run, reference %d", seed, a, got, tr.committed[a])
			return false
		}
	}
	return true
}

// TestLineMetaPacks: the two masks lead lineMeta so the per-line state,
// flags included, packs into 24 bytes.
func TestLineMetaPacks(t *testing.T) {
	if n := unsafe.Sizeof(lineMeta{}); n != 24 {
		t.Fatalf("lineMeta is %d bytes, want 24", n)
	}
}

// TestAbortingAtomicAllocatesNothing: once its proc's pooled Tx is warm, an
// Atomic that aborts performs no heap allocation — whether a doom is
// observed at the next step, the body aborts explicitly, or a doom is
// observed at commit — and neither does one that commits stores to three
// lines. The unwind raises a pointer into the pooled Tx.
func TestAbortingAtomicAllocatesNothing(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 1})
	hm := NewMemory(m, Config{Words: 1 << 12, Cost: testCost()})
	a := hm.Store().AllocLines(3)
	peer := m.Proc(1) // the dooming requestor; it never runs
	cases := []struct {
		name  string
		cause Cause // CauseNone: the Atomic commits
		body  func(tx *Tx)
	}{
		{"doomed step", CauseConflict, func(tx *Tx) {
			tx.Load(a)
			hm.doomForWrite(peer, mem.LineOf(a), &hm.meta[mem.LineOf(a)]) // the path of a peer's store
			tx.Load(a + mem.LineWords)
		}},
		{"explicit abort", CauseExplicit, func(tx *Tx) {
			tx.Store(a, 1)
			tx.Abort(7)
		}},
		{"commit-time doom", CauseConflict, func(tx *Tx) {
			tx.Store(a, 1)
			hm.doomForRead(peer, mem.LineOf(a), &hm.meta[mem.LineOf(a)]) // the path of a peer's load
		}},
		{"commit to three lines", CauseNone, func(tx *Tx) {
			tx.Store(a, tx.Load(a)+1)
			tx.Store(a+mem.LineWords+1, 2)
			tx.Store(a+2*mem.LineWords+7, tx.Load(a+mem.LineWords+1))
		}},
	}
	m.Go(func(p *sim.Proc) {
		for _, c := range cases {
			var st Status
			run := func() { st = hm.Atomic(p, c.body) }
			run() // warm the pooled Tx
			if st.Committed != (c.cause == CauseNone) || st.Cause != c.cause {
				t.Errorf("%s: status %+v, want cause %v", c.name, st, c.cause)
			}
			if n := testing.AllocsPerRun(100, run); n != 0 {
				t.Errorf("%s: %v allocations per Atomic, want 0", c.name, n)
			}
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
