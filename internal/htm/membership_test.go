package htm

import (
	"testing"
	"unsafe"

	"elision/internal/mem"
	"elision/internal/sim"
)

// refTx is the reference model of one live transaction's footprint: plain
// map-based sets, maintained by the test from the accesses it issues.
type refTx struct {
	reads, writes map[int]bool
	buffered      map[mem.Addr]bool // stored words (loads hit the write buffer)
	elided        map[mem.Addr]bool // XACQUIRE-elided words (loads hit the illusion)
	subscribed    bool
}

func newRefTx() *refTx {
	return &refTx{
		reads:    make(map[int]bool),
		writes:   make(map[int]bool),
		buffered: make(map[mem.Addr]bool),
		elided:   make(map[mem.Addr]bool),
	}
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
	failed bool
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

// read records an addRead of a's line: subscription, then membership.
func (r *refTx) read(tr *membershipTrace, a mem.Addr) {
	l := mem.LineOf(a)
	r.reads[l] = true
	if tr.subs[l] {
		r.subscribed = true
	}
}

// access issues one random transactional access and mirrors it in r.
func (tr *membershipTrace) access(p *sim.Proc, tx *Tx, r *refTx) {
	switch c := p.RandN(20); {
	case c < 8:
		a := tr.addr(p)
		tx.Load(a)
		if !r.buffered[a] && !r.elided[a] {
			r.read(tr, a)
		}
	case c < 13:
		a := tr.addr(p)
		tx.Store(a, int64(p.RandN(1000)))
		r.writes[mem.LineOf(a)] = true
		r.buffered[a] = true
	case c < 16:
		first := !r.elided[tr.lock]
		tx.ElideRMW(tr.lock, func(old int64) int64 { return old + 1 })
		if first {
			r.read(tr, tr.lock)
			r.elided[tr.lock] = true
		}
	case c < 17:
		if r.elided[tr.lock] {
			e := tx.elideAt(tr.lock)
			tx.ReleaseStore(tr.lock, e.orig)
		}
	case c < 18:
		// An escape load reads committed memory and leaves no trace.
		tx.Escaped(func() { tx.Load(tr.addr(p)) })
	case c < 19:
		// Flat nesting extends the outer transaction.
		tr.hm.Atomic(p, func(inner *Tx) {
			a := tr.addr(p)
			inner.Load(a)
			if !r.buffered[a] && !r.elided[a] {
				r.read(tr, a)
			}
		})
	default:
		tx.Abort(int(p.RandN(256)))
	}
}

// transaction runs one random Atomic on p, checking after every access.
func (tr *membershipTrace) transaction(p *sim.Proc) {
	id := p.ID()
	n := 1 + p.RandN(10)
	tr.hm.Atomic(p, func(tx *Tx) {
		r := newRefTx()
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
	tr.checkClean(p)
	tr.check("after Atomic")
}

// holderEpisode is a fallback path: acquire the lock non-transactionally,
// read and write a few lines, release.
func (tr *membershipTrace) holderEpisode(p *sim.Proc) {
	tr.holder = p.ID()
	tr.hm.StoreNT(p, tr.lock, 1)
	tr.hm.TraceLock(p)
	tr.hReads = make(map[int]bool)
	tr.check("after TraceLock")
	for j := p.RandN(6); j > 0; j-- {
		a := tr.addr(p)
		if p.RandN(2) == 0 {
			tr.hm.LoadNT(p, a)
			if tr.hm.fixDangerous {
				tr.hReads[mem.LineOf(a)] = true
			}
		} else {
			tr.hm.StoreNT(p, a, int64(p.RandN(1000)))
		}
		tr.check("after a holder access")
		p.Advance(p.RandN(60))
	}
	tr.hm.TraceUnlock(p)
	tr.hm.StoreNT(p, tr.lock, 0)
	tr.holder = -1
	tr.check("after TraceUnlock")
}

// TestMembershipMatchesReference drives one small Memory, Reset between
// runs, through seeded random traces: transactional loads, stores, HLE
// elisions and releases, escapes, nested and explicitly aborted
// transactions; non-transactional stores and fallback-holder episodes from
// other procs; small read/write capacities; both policies; and the
// lazy-subscription fix with subscription lines. After every access each
// live transaction's per-line membership must equal a map-based reference
// set, and after every Atomic the proc must have left no readers bit or
// writer id behind.
func TestMembershipMatchesReference(t *testing.T) {
	const procs = 4
	mach := sim.MustNew(sim.Config{Procs: procs, Seed: 1})
	hm := NewMemory(mach, Config{Words: 8 * mem.LineWords})
	for seed := uint64(1); seed <= 60; seed++ {
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
		if err := mach.Reset(sim.Config{Procs: procs, Seed: seed, Quantum: 16}); err != nil {
			t.Fatal(err)
		}
		hm.Reset(mach, cfg)
		st := hm.Store()
		lock := st.AllocLines(1)
		base := st.AllocLines(lines - 2)
		tr := &membershipTrace{
			t: t, seed: seed, hm: hm, base: base, nLines: lines - 2, lock: lock,
			subs: make(map[int]bool), ref: make([]*refTx, procs), holder: -1, hReads: make(map[int]bool),
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

		for i := 0; i < procs; i++ {
			mach.Go(func(p *sim.Proc) {
				for k := 0; k < 40; k++ {
					switch c := p.RandN(10); {
					case c < 7:
						tr.transaction(p)
					case c < 9:
						tr.hm.StoreNT(p, tr.addr(p), int64(p.RandN(1000)))
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
			return
		}
		for l, lm := range hm.meta {
			if lm.readers != 0 || lm.writer != -1 {
				t.Fatalf("seed %d: line %d still tracked after the run (readers %b, writer %d)", seed, l, lm.readers, lm.writer)
			}
		}
	}
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
// observed at commit. The unwind raises a pointer into the pooled Tx.
func TestAbortingAtomicAllocatesNothing(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 1})
	hm := NewMemory(m, Config{Words: 1 << 12, Cost: testCost()})
	a := hm.Store().AllocLines(2)
	peer := m.Proc(1) // the dooming requestor; it never runs
	cases := []struct {
		name  string
		cause Cause
		body  func(tx *Tx)
	}{
		{"doomed step", CauseConflict, func(tx *Tx) {
			tx.Load(a)
			hm.doomForWrite(peer, mem.LineOf(a)) // the path of a peer's store
			tx.Load(a + mem.LineWords)
		}},
		{"explicit abort", CauseExplicit, func(tx *Tx) {
			tx.Store(a, 1)
			tx.Abort(7)
		}},
		{"commit-time doom", CauseConflict, func(tx *Tx) {
			tx.Store(a, 1)
			hm.doomForRead(peer, mem.LineOf(a)) // the path of a peer's load
		}},
	}
	m.Go(func(p *sim.Proc) {
		for _, c := range cases {
			var st Status
			run := func() { st = hm.Atomic(p, c.body) }
			run() // warm the pooled Tx
			if st.Committed || st.Cause != c.cause {
				t.Errorf("%s: status %+v, want an abort with cause %v", c.name, st, c.cause)
			}
			if n := testing.AllocsPerRun(100, run); n != 0 {
				t.Errorf("%s: %v allocations per aborting Atomic, want 0", c.name, n)
			}
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
