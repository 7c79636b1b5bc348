package htm

import (
	"math/bits"

	"elision/internal/mem"
	"elision/internal/sim"
)

// Tx is one hardware transaction in flight. A Tx is only valid inside the
// body passed to Memory.Atomic, on the proc that started it. Tx state is
// pooled per proc (Memory.txs) and recycled across transactions and
// retries: the member lists, write buffers and elision list keep their
// backing storage, and an abort unwinds with a pointer to the pooled
// unwind record, so a steady-state transaction allocates nothing.
//
// Read/write-set membership lives in the lines' own metadata: the proc is
// in line l's read set iff its bit is set in meta[l].readers, and in l's
// write set iff meta[l].writer is its id. The write rule is exact for a
// transaction that is not doomed: an access that takes over a live
// transaction's write line dooms that transaction, and a doomed one never
// reaches another membership test (every access checks its doom first).
// readLines and writeLines list the members in insertion order, for set
// sizes, capacity aborts and cleanup.
//
// The write buffer is kept per write line: bufs[i] holds the stores to
// writeLines[i], and the line's lineMeta.slot holds i while this
// transaction owns the line. Since an undoomed transaction owns its write
// lines, a load finds its buffered words from its own line's metadata,
// with no hashing.
type Tx struct {
	p *sim.Proc
	m *Memory

	readLines  []int
	writeLines []int
	bufs       []lineBuf    // one per write line; truncated at reset
	writeOrder []mem.Addr   // each stored word once, in first-store (publication) order
	elided     []elideEntry // tiny (usually one lock word); linear scan

	begin  uint64 // clock at XBEGIN, for the transaction timer
	doomed bool
	// doomLine / doomTid record where and by whom the dooming conflict
	// happened, surfaced in the abort status (§8's refined-conflict-
	// management direction). doomNT marks the requestor as non-transactional
	// (a fallback-path access) and doomWhen is the requestor's clock at the
	// dooming access — together the causality engine's edge payload.
	doomLine int
	doomTid  int
	doomNT   bool
	doomWhen uint64
	depth    int // flat nesting depth beyond the outermost Atomic

	// subscribed is set once the transaction has read a registered
	// fallback-lock line transactionally (Memory.SetSubscriptionLines) —
	// the hardware notion of lock subscription from the lazy-subscription
	// fix. escaped marks an active non-transactional escape region
	// (Tx.Escaped): loads inside it bypass the write buffer, elision
	// illusions and the read set.
	subscribed bool
	escaped    bool

	// unwind is the abort record Atomic recovers: abortNow fills it and
	// panics with its address, so unwinding boxes nothing.
	unwind txAbortPanic
}

// lineBuf buffers a transaction's stores to one write line: the line's words
// and a mask of those stored (bit i for word i; a line's 8 words fill it).
type lineBuf struct {
	words [mem.LineWords]int64
	valid uint8
}

// A line's words must fit lineBuf.valid: this overflows if they do not.
const _ = uint8(1<<mem.LineWords - 1)

// initialWriteLines is the write-buffer capacity, in lines, a proc's pooled
// Tx starts with.
const initialWriteLines = 8

// wordOf is a's index within its cache line.
func wordOf(a mem.Addr) int { return int(a) & (mem.LineWords - 1) }

// elideEntry tracks one XACQUIRE-elided location: the original memory value
// (which XRELEASE must restore) and the current illusion value visible only
// to this transaction.
type elideEntry struct {
	addr mem.Addr
	orig int64
	cur  int64
}

// elideAt returns the elision entry for a, or nil. The returned pointer is
// invalidated by the next append to tx.elided.
func (tx *Tx) elideAt(a mem.Addr) *elideEntry {
	for i := range tx.elided {
		if tx.elided[i].addr == a {
			return &tx.elided[i]
		}
	}
	return nil
}

// reset prepares the pooled Tx for a fresh transaction on proc p.
func (tx *Tx) reset(p *sim.Proc, m *Memory) {
	tx.p, tx.m = p, m
	tx.readLines = tx.readLines[:0]
	tx.writeLines = tx.writeLines[:0]
	if tx.bufs == nil {
		tx.bufs = make([]lineBuf, 0, initialWriteLines)
	}
	tx.bufs = tx.bufs[:0]
	tx.writeOrder = tx.writeOrder[:0]
	tx.elided = tx.elided[:0]
	tx.begin = p.Clock()
	tx.doomed = false
	tx.doomLine, tx.doomTid = -1, -1
	tx.doomNT, tx.doomWhen = false, 0
	tx.depth = 0
	tx.subscribed = false
	tx.escaped = false
}

// txAbortPanic unwinds the transaction body back to Atomic; it is raised by
// pointer to the Tx's pooled unwind field.
type txAbortPanic struct {
	st Status
}

// abortNow unwinds with the given cause. Retryability follows TSX: capacity
// and HLE-restore aborts will fail again if simply retried, and a
// dangerous-action abort recurs deterministically as long as the scheme
// keeps subscribing lazily.
func (tx *Tx) abortNow(cause Cause, code int) {
	retry := true
	if cause == CauseCapacity || cause == CauseHLEMismatch || cause == CauseDangerous {
		retry = false
	}
	st := Status{Cause: cause, Code: code, Retry: retry, ConflictLine: -1, ConflictTid: -1}
	if cause == CauseConflict {
		st.ConflictLine = tx.doomLine
		st.ConflictTid = tx.doomTid
		st.ConflictNT = tx.doomNT
	}
	tx.unwind.st = st
	panic(&tx.unwind)
}

// step is executed before every transactional access that is not a plain
// Load or Store (those inline it): a doomed transaction aborts here (the
// deferred coherency abort), and then draws its spurious and timer aborts.
func (tx *Tx) step() {
	if tx.doomed {
		tx.abortNow(CauseConflict, 0)
	}
	tx.draw()
}

// draw fires spurious aborts and the transaction timer, after the access's
// doom check. Half of all spurious aborts report the retry hint clear,
// modelling eviction-flavoured aborts that Haswell marks as
// not-worth-retrying (the other half look like transient interference).
func (tx *Tx) draw() {
	if tx.m.cost.SpuriousDenom > 0 {
		d := &tx.m.spurious
		if tx.p.SiblingActive() {
			// A shared L1 (SMT) multiplies eviction-flavoured aborts.
			d = &tx.m.spuriousSMT
		}
		// Exactly the one Rand64 that RandN(d) == 0 draws, so the test
		// replaces only its division and every schedule stays the same.
		if d.divides(tx.p.Rand64()) {
			if tx.p.RandN(2) == 0 {
				tx.abortNoRetry(CauseSpurious)
			}
			tx.abortNow(CauseSpurious, 0)
		}
	}
	if t := tx.m.cost.TxTimer; t > 0 && tx.p.Clock()-tx.begin > t {
		tx.abortNow(CauseInterrupt, 0)
	}
}

// abortNoRetry unwinds with the retry hint clear.
func (tx *Tx) abortNoRetry(cause Cause) {
	tx.unwind.st = Status{Cause: cause, Retry: false, ConflictLine: -1, ConflictTid: -1}
	panic(&tx.unwind)
}

// Proc returns the proc executing this transaction.
func (tx *Tx) Proc() *sim.Proc { return tx.p }

// addRead registers line l, whose metadata is lm, in the read set, applying
// the conflict policy to any conflicting writer and the capacity limit to
// ourselves.
func (tx *Tx) addRead(l int, lm *lineMeta) {
	if lm.subLine {
		// Reading a fallback-lock line transactionally IS subscription:
		// from here on the holder's acquiring store dooms this transaction.
		tx.subscribed = true
	}
	if lm.writer >= 0 && int(lm.writer) != tx.p.ID() {
		if tx.m.policy == CommitterWins && !tx.m.cur[lm.writer].doomed {
			tx.doomLine, tx.doomTid = l, int(lm.writer)
			tx.doomNT, tx.doomWhen = false, tx.p.Clock()
			tx.abortNow(CauseConflict, 0)
		}
		tx.m.doom(tx.p, tx.m.cur[lm.writer], l)
	}
	if me := uint64(1) << tx.p.ID(); lm.readers&me == 0 {
		if len(tx.readLines) >= tx.m.maxRead {
			tx.abortNow(CauseCapacity, 0)
		}
		tx.readLines = append(tx.readLines, l)
		lm.readers |= me
	}
}

// addWrite registers line l, whose metadata is lm, in the write set,
// resolving conflicts with all other readers and writers of the line per
// the policy, and gives a newly owned line an empty buffer.
func (tx *Tx) addWrite(l int, lm *lineMeta) {
	if tx.m.fixDangerous && !tx.subscribed && tx.m.fbHolder >= 0 &&
		tx.m.fbHolder != tx.p.ID() && lm.holderRead {
		// Dangerous action (b): writing a line the fallback holder has read.
		// The holder will not see our buffered write doom anything — plain
		// reads leave no conflict trace — so an unsubscribed commit could
		// mutate the holder's footprint mid-critical-section.
		tx.abortNow(CauseDangerous, 0)
	}
	if tx.m.policy == CommitterWins {
		// Abort ourselves if any live transactional owner exists.
		if lm.writer >= 0 && int(lm.writer) != tx.p.ID() && !tx.m.cur[lm.writer].doomed {
			tx.doomLine, tx.doomTid = l, int(lm.writer)
			tx.doomNT, tx.doomWhen = false, tx.p.Clock()
			tx.abortNow(CauseConflict, 0)
		}
		probe := lm.readers &^ (uint64(1) << tx.p.ID())
		for probe != 0 {
			tid := bits.TrailingZeros64(probe)
			probe &^= 1 << tid
			if !tx.m.cur[tid].doomed {
				tx.doomLine, tx.doomTid = l, tid
				tx.doomNT, tx.doomWhen = false, tx.p.Clock()
				tx.abortNow(CauseConflict, 0)
			}
		}
	}
	if lm.writer >= 0 && int(lm.writer) != tx.p.ID() {
		tx.m.doom(tx.p, tx.m.cur[lm.writer], l)
	}
	me := uint64(1) << tx.p.ID()
	mask := lm.readers &^ me
	for mask != 0 {
		tid := bits.TrailingZeros64(mask)
		mask &^= 1 << tid
		tx.m.doom(tx.p, tx.m.cur[tid], l)
	}
	if int(lm.writer) != tx.p.ID() {
		if len(tx.writeLines) >= tx.m.maxWrite {
			tx.abortNow(CauseCapacity, 0)
		}
		lm.slot = uint16(len(tx.writeLines))
		tx.writeLines = append(tx.writeLines, l)
		tx.bufs = append(tx.bufs, lineBuf{})
		lm.writer = int16(tx.p.ID())
	}
}

// Load performs a transactional load. It resolves a's line state once and
// uses it for the charge, the doom check, the write buffer and the
// membership test; it calls addRead only when the line is not already a
// clean member (our reader bit set, no subscription mark, no foreign
// writer), for which addRead would do nothing. The charge's Advance may
// park the proc, so the line state is read for the rest only after it.
func (tx *Tx) Load(a mem.Addr) int64 {
	m, p := tx.m, tx.p
	l := mem.LineOf(a)
	lm := &m.meta[l]
	p.Advance(m.readCost(p, lm))
	if tx.doomed {
		tx.abortNow(CauseConflict, 0)
	}
	tx.draw()
	if tx.escaped {
		// Escape read: globally committed memory, no read-set entry. Like
		// any coherency read it dooms a conflicting transactional writer,
		// but nothing records that WE read the line — a store to it later
		// cannot doom us. That missing trace is the lazy-subscription hole.
		m.doomForRead(p, l, lm)
		return m.store.Load(a)
	}
	id := p.ID()
	if int(lm.writer) == id {
		w := wordOf(a)
		if b := &tx.bufs[lm.slot]; b.valid&(1<<w) != 0 {
			return b.words[w]
		}
	}
	if len(tx.elided) != 0 {
		if e := tx.elideAt(a); e != nil {
			return e.cur
		}
	}
	if lm.readers&(1<<id) == 0 || lm.subLine || lm.writer >= 0 && int(lm.writer) != id {
		tx.addRead(l, lm)
	}
	return m.store.Load(a)
}

// Store performs a transactional (buffered) store. Like Load it resolves
// a's line state once; it calls addWrite only when the line is not already
// a clean member (we are its writer, no other proc's reader bit is set, and
// it carries no holder-read mark, which exists only under the
// dangerous-action fix), and it records a word in writeOrder on its first
// store only.
func (tx *Tx) Store(a mem.Addr, v int64) {
	if tx.escaped {
		panic("htm: stores inside an escape region are not modeled")
	}
	m, p := tx.m, tx.p
	l := mem.LineOf(a)
	lm := &m.meta[l]
	p.Advance(m.writeCost(p, lm))
	if tx.doomed {
		tx.abortNow(CauseConflict, 0)
	}
	tx.draw()
	if len(tx.elided) != 0 && tx.elideAt(a) != nil {
		// Writing an elided lock word with a plain store inside the
		// transaction breaks the elision illusion; TSX aborts.
		tx.abortNow(CauseHLEMismatch, 0)
	}
	id := p.ID()
	if int(lm.writer) != id || lm.readers&^(1<<id) != 0 || lm.holderRead {
		tx.addWrite(l, lm)
	}
	b := &tx.bufs[lm.slot]
	w := wordOf(a)
	if bit := uint8(1) << w; b.valid&bit == 0 {
		b.valid |= bit
		tx.writeOrder = append(tx.writeOrder, a)
	}
	b.words[w] = v
}

// CAS performs a transactional compare-and-swap.
func (tx *Tx) CAS(a mem.Addr, old, new int64) (int64, bool) {
	prev := tx.Load(a)
	if prev != old {
		return prev, false
	}
	tx.Store(a, new)
	return prev, true
}

// Swap performs a transactional exchange.
func (tx *Tx) Swap(a mem.Addr, v int64) int64 {
	prev := tx.Load(a)
	tx.Store(a, v)
	return prev
}

// FetchAdd performs a transactional fetch-and-add.
func (tx *Tx) FetchAdd(a mem.Addr, delta int64) int64 {
	prev := tx.Load(a)
	tx.Store(a, prev+delta)
	return prev
}

// Abort is XABORT: the transaction aborts itself with a software code.
func (tx *Tx) Abort(code int) {
	tx.abortNow(CauseExplicit, code)
}

// Subscribed reports whether this transaction has subscribed to the
// fallback lock (read a line registered via Memory.SetSubscriptionLines
// transactionally). Always false when no lines are registered.
func (tx *Tx) Subscribed() bool { return tx.subscribed }

// Escaped runs f as a non-transactional escape region: loads issued
// through tx.Load inside f read globally committed memory directly,
// bypassing the write buffer, elision illusions and — crucially — the read
// set, so they leave no trace in the transaction's conflict footprint.
// This models the suspend/resume or non-transactional-load facility a lazy
// subscription implementation would use to peek at the fallback lock
// without putting it in the read set. Stores inside f are not modeled.
//
// Under AbortOnDangerousWhileUnsubscribed, entering an escape region while
// unsubscribed is dangerous action (a) and aborts with CauseDangerous:
// the hardware cannot tell a benign peek from one whose result guards a
// commit decision, so it forbids the whole class (arXiv 1407.6968, §5).
func (tx *Tx) Escaped(f func()) {
	tx.step()
	if tx.m.fixDangerous && !tx.subscribed {
		tx.abortNow(CauseDangerous, 0)
	}
	prev := tx.escaped
	tx.escaped = true
	defer func() { tx.escaped = prev }()
	f()
}

// Wait models spinning inside a transaction on a location whose value is
// frozen in the read set. The spinner parks on the line; the store that
// eventually changes the value dooms this transaction (the line is in our
// read set) and wakes us, upon which we abort with CauseConflict — exactly
// the coherency abort a real HLE spinner suffers. If no store arrives
// before the transaction timer expires, we abort with CauseInterrupt.
func (tx *Tx) Wait(a mem.Addr) {
	_ = tx.Load(a) // ensure the line is in the read set (and pay the access)
	deadline := tx.begin + tx.m.cost.TxTimer
	if tx.m.cost.TxTimer == 0 {
		deadline = sim.NoDeadline
	}
	tx.m.store.AddWaiter(a, tx.p)
	cause := tx.p.Block(deadline)
	// A store to the awaited line consumed our registration; a timeout or a
	// doom on a different line did not — drop it so a later store cannot
	// spuriously wake a future wait (RemoveWaiter is a no-op when absent).
	tx.m.store.RemoveWaiter(a, tx.p)
	if cause == sim.WakeTimeout {
		tx.abortNow(CauseInterrupt, 0)
	}
	if tx.doomed {
		tx.abortNow(CauseConflict, 0)
	}
	// Woken without being doomed (e.g. a store to another word that raced
	// with our registration): treat as an interrupt so callers never spin
	// on a frozen value.
	tx.abortNow(CauseInterrupt, 0)
}

// --- HLE elision ------------------------------------------------------------

// ElideRMW performs an XACQUIRE-prefixed read-modify-write on a lock word:
// the line enters the *read* set, the store is elided into an illusion value
// that only this transaction observes, and the pre-elision value is
// returned (that is what the instruction "reads").
func (tx *Tx) ElideRMW(a mem.Addr, f func(old int64) int64) int64 {
	l := mem.LineOf(a)
	lm := &tx.m.meta[l]
	tx.p.Advance(tx.m.readCost(tx.p, lm))
	tx.step()
	idx := -1
	for i := range tx.elided {
		if tx.elided[i].addr == a {
			idx = i
			break
		}
	}
	if idx < 0 {
		tx.addRead(l, lm)
		v := tx.m.store.Load(a)
		tx.elided = append(tx.elided, elideEntry{addr: a, orig: v, cur: v})
		idx = len(tx.elided) - 1
	}
	old := tx.elided[idx].cur
	// Index, not pointer: f may re-enter the transaction and grow tx.elided.
	tx.elided[idx].cur = f(old)
	return old
}

// ElideStore is an XACQUIRE store: elide the write of v.
func (tx *Tx) ElideStore(a mem.Addr, v int64) {
	tx.ElideRMW(a, func(int64) int64 { return v })
}

// ReleaseStore is an XRELEASE store: it must restore the elided location to
// its original value or the transaction aborts (HLE's restore requirement).
func (tx *Tx) ReleaseStore(a mem.Addr, v int64) {
	tx.p.Advance(tx.m.cost.MemHit)
	tx.step()
	e := tx.elideAt(a)
	if e == nil {
		// XRELEASE without a matching XACQUIRE elision is just a store.
		tx.Store(a, v)
		return
	}
	if v != e.orig {
		tx.abortNow(CauseHLEMismatch, 0)
	}
	e.cur = v
}

// ReleaseCAS is an XRELEASE-prefixed compare-and-swap, used by the
// HLE-adapted ticket and CLH locks (Appendix A): on success the lock must be
// restored to its original value. A failed CAS writes nothing and simply
// reports false (the caller falls back to the standard release path).
func (tx *Tx) ReleaseCAS(a mem.Addr, old, new int64) bool {
	tx.p.Advance(tx.m.cost.MemHit)
	tx.step()
	e := tx.elideAt(a)
	if e == nil {
		_, swapped := tx.CAS(a, old, new)
		return swapped
	}
	if e.cur != old {
		return false
	}
	if new != e.orig {
		tx.abortNow(CauseHLEMismatch, 0)
	}
	e.cur = new
	return true
}

// --- Commit and cleanup ------------------------------------------------------

// commit publishes the write buffer and ends the transaction. Called by
// Atomic when the body returns.
func (tx *Tx) commit() Status {
	tx.p.Advance(tx.m.cost.TxCommit)
	if tx.doomed {
		tx.abortNow(CauseConflict, 0)
	}
	if tx.m.fixDangerous && !tx.subscribed && tx.m.fbHolder >= 0 &&
		tx.m.fbHolder != tx.p.ID() {
		// Dangerous action (c): committing while the fallback lock is held
		// by another thread without ever having subscribed. A subscribed
		// transaction cannot reach this point (the holder's acquiring store
		// doomed it above); an unsubscribed one must be stopped here or its
		// writes publish into the middle of the holder's critical section.
		tx.abortNow(CauseDangerous, 0)
	}
	// HLE restore rule: every elided location must hold its original value
	// at commit (the XRELEASE already happened or nothing changed).
	for i := range tx.elided {
		if tx.elided[i].cur != tx.elided[i].orig {
			tx.abortNow(CauseHLEMismatch, 0)
		}
	}
	for _, a := range tx.writeOrder {
		// Requestor-wins guarantees no other transaction still holds our
		// write lines, so each names our buffer's slot; publish and wake
		// any non-transactional spinners.
		v := tx.bufs[tx.m.meta[mem.LineOf(a)].slot].words[wordOf(a)]
		tx.m.store.StoreWord(a, v)
		tx.m.store.WakeWaiters(a, tx.p, sim.WakeStore, tx.m.cost.WakeLatency)
	}
	tx.cleanup()
	return Status{Committed: true, ConflictLine: -1, ConflictTid: -1}
}

// cleanup removes this transaction's lines from the conflict-tracking
// metadata. Safe to call after either commit or abort; the member lists and
// write buffers are emptied by the next reset (the lists' lengths stay
// readable for the abort-path collector). A write line another access took
// over (dooming us) already names its new owner and is left.
func (tx *Tx) cleanup() {
	me := uint64(1) << tx.p.ID()
	for _, l := range tx.readLines {
		tx.m.meta[l].readers &^= me
	}
	for _, l := range tx.writeLines {
		if int(tx.m.meta[l].writer) == tx.p.ID() {
			tx.m.meta[l].writer = -1
		}
	}
}
