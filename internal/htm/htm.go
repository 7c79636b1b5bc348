// Package htm simulates Intel Haswell-style hardware transactional memory
// (TSX) on top of the sim/mem substrate.
//
// The model captures the properties the paper's dynamics depend on:
//
//   - Conflict detection at cache-line granularity, with a "requestor wins"
//     resolution policy: the thread performing an access proceeds; any
//     transaction it conflicts with is doomed and aborts at its next step.
//   - A non-transactional store dooms every transaction holding the line in
//     its read or write set; a non-transactional load dooms transactions
//     holding the line in their write set (coherency-message aborts, §3.1).
//   - HLE elision: an XACQUIRE-prefixed read-modify-write places the lock's
//     line in the transaction's *read* set and records an illusion value that
//     only this transaction observes; the XRELEASE store must restore the
//     original value or the transaction aborts.
//   - Capacity aborts (bounded read/write sets), explicit XABORT with an
//     abort code, spurious aborts, and timer-interrupt aborts of
//     transactions that wait too long.
//
// Aborts unwind the transaction body with a panic recovered inside Atomic —
// the software analogue of the XBEGIN fallback path. Flat nesting is
// supported as in TSX: a nested Atomic simply extends the outer transaction
// and an abort anywhere unwinds to the outermost XBEGIN.
//
// Invariants: all Memory and Tx methods must be called from the goroutine
// running the proc they are passed (sim's single-runner invariant), which
// is why the conflict metadata, the per-proc pooled transaction state and
// the MESI-flavoured cost bookkeeping are plain unsynchronized Go data;
// spurious aborts draw only on the proc's deterministic RNG, so every
// transaction history is bit-for-bit reproducible from the machine seed.
package htm

import (
	"fmt"
	"math"
	"math/bits"

	"elision/internal/mem"
	"elision/internal/obs"
	"elision/internal/sim"
	"elision/internal/trace"
)

// Cause classifies why a transaction aborted, mirroring the TSX abort
// status word.
type Cause int8

// Abort causes.
const (
	// CauseNone means the transaction committed.
	CauseNone Cause = iota
	// CauseConflict is a data conflict (coherency-triggered abort).
	CauseConflict
	// CauseCapacity means the read or write set overflowed.
	CauseCapacity
	// CauseExplicit is a software XABORT; Status.Code carries the operand.
	CauseExplicit
	// CauseSpurious models Haswell's unexplained aborts (§3.1).
	CauseSpurious
	// CauseInterrupt is a (simulated) timer interrupt: the transaction
	// waited in-flight longer than the transaction timer allows.
	CauseInterrupt
	// CauseHLEMismatch means an XRELEASE store did not restore the elided
	// lock to its original value.
	CauseHLEMismatch
	// CauseDangerous is the lazy-subscription hardware fix (Dice et al.,
	// arXiv 1407.6968): with Config.AbortOnDangerousWhileUnsubscribed set,
	// a transaction that performs a dangerous action — a non-transactional
	// escape, a write to a line the fallback holder has read, or a commit
	// while the fallback lock is held — before subscribing to the lock
	// aborts with this cause.
	CauseDangerous
)

// String implements fmt.Stringer for diagnostics.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseExplicit:
		return "explicit"
	case CauseSpurious:
		return "spurious"
	case CauseInterrupt:
		return "interrupt"
	case CauseHLEMismatch:
		return "hle-mismatch"
	case CauseDangerous:
		return "dangerous"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// NumCauses is the number of distinct Cause values (for stats arrays).
const NumCauses = 8

// Status is the result of one transactional attempt — the analogue of the
// EAX abort-status register an RTM fallback path inspects, extended with
// the conflict information §8 identifies as a promising direction for
// refined conflict management ("the location in which a conflict occurs,
// and/or the identity of the conflicting thread").
type Status struct {
	// Committed is true when the transaction committed.
	Committed bool
	// Cause says why the transaction aborted (CauseNone if committed).
	Cause Cause
	// Code is the XABORT operand for CauseExplicit aborts.
	Code int
	// Retry is the hardware's hint that retrying may succeed. It is set for
	// conflict, spurious, interrupt and explicit aborts, and clear for
	// capacity and HLE-restore aborts.
	Retry bool
	// ConflictLine is the cache line on which a CauseConflict abort was
	// triggered, or -1 when unknown/not a conflict.
	ConflictLine int
	// ConflictTid is the thread whose access doomed this transaction, or -1.
	ConflictTid int
	// ConflictNT is true when the dooming access was non-transactional — the
	// requestor was a real lock acquisition or a lock holder's plain access,
	// not a fellow speculator. This is the bit that separates fallback-induced
	// aborts (lemming roots) from speculative-conflict aborts.
	ConflictNT bool
}

// Policy selects the transaction-vs-transaction conflict-resolution policy.
type Policy int8

// Conflict-resolution policies.
const (
	// RequestorWins is Haswell's policy (§3.1): the thread performing the
	// access proceeds and the transaction it conflicts with is doomed. It
	// guarantees neither starvation freedom nor livelock freedom [7], which
	// is why SLR needs its commit-time lock fallback (§5).
	RequestorWins Policy = iota
	// CommitterWins is the polite alternative: a transactional access that
	// conflicts with an existing transactional owner aborts ITSELF, letting
	// the incumbent run to commit — a stand-in for the hardware conflict
	// management with progress guarantees that Rajwar-Goodman lock removal
	// assumed [22]. Non-transactional accesses still doom transactions
	// (coherency cannot stall a committed store).
	CommitterWins
)

// Config parameterizes a simulated HTM memory.
type Config struct {
	// Words is the size of simulated memory.
	Words int
	// Cost is the virtual-cycle cost model; zero value means sim.DefaultCost.
	Cost sim.CostModel
	// MaxReadLines bounds a transaction's read set (0 = default 4096).
	MaxReadLines int
	// MaxWriteLines bounds a transaction's write set (0 = default 512,
	// roughly an L1's worth of lines as on Haswell).
	MaxWriteLines int
	// Policy is the tx-vs-tx conflict-resolution policy (default
	// RequestorWins, as on Haswell).
	Policy Policy
	// AbortOnDangerousWhileUnsubscribed enables the lazy-subscription
	// hardware extension of Dice/Harris/Kogan/Lev/Moir (arXiv 1407.6968):
	// the memory tracks, per transaction, whether the transaction has
	// subscribed to the fallback lock (read one of the lines registered via
	// SetSubscriptionLines transactionally), and aborts it with
	// CauseDangerous when it attempts a dangerous action while
	// unsubscribed. Dangerous actions are (a) entering a non-transactional
	// escape region (Tx.Escaped), (b) writing a line the current fallback
	// holder has read non-transactionally, and (c) committing while the
	// fallback lock is held by another thread.
	AbortOnDangerousWhileUnsubscribed bool
}

// Memory is simulated transactional shared memory for one machine.
type Memory struct {
	store *mem.Store
	meta  []lineMeta
	cur   []*Tx // current transaction per proc id, nil when not in one
	// txs is the per-proc transaction pool: flat nesting means a proc runs
	// at most one transaction at a time, so its Tx (member lists, write
	// buffer, elision list) is recycled across transactions and retries.
	txs      []Tx
	cost     sim.CostModel
	maxRead  int
	maxWrite int
	policy   Policy
	tracer   *trace.Tracer  // nil when tracing is off
	col      *obs.Collector // nil when observability is off
	// ev is the event being emitted, filled in place (see event).
	ev obs.Event
	// spurious and spuriousSMT draw §3.1's spurious aborts (see Tx.step):
	// the tests for a multiple of Cost.SpuriousDenom and of its SMT-divided
	// value, zero when SpuriousDenom is.
	spurious, spuriousSMT divisor

	// Subscription-state machinery for the lazy-subscription hardware fix.
	// subLines lists the fallback lock's lines (SetSubscriptionLines), each
	// marked lineMeta.subLine. fbHolder is the proc currently holding the
	// fallback lock non-speculatively (TraceLock/TraceUnlock), or -1;
	// holderReads lists the lines that holder has read non-transactionally
	// during the current hold, each marked lineMeta.holderRead — the
	// footprint a dangerous write is checked against. The lists exist only
	// to clear the marks again.
	fixDangerous bool
	subLines     []int
	fbHolder     int
	holderReads  []int
}

// lineMeta is the per-cache-line state. readers/writer are the
// transactional read and write sets for conflict detection (see Tx);
// sharers/owner track a MESI-ish caching state used only for the cost
// model (who pays a hit vs a miss). The two masks lead so the struct packs
// into 24 bytes.
type lineMeta struct {
	readers uint64
	// sharers is the set of procs holding the line (shared state).
	sharers uint64
	writer  int16 // proc id, or -1
	// owner is the proc holding the line exclusively after a write, or -1.
	owner int16
	// slot indexes the writer's buffer for this line (Tx.bufs); it means
	// something only while writer is a proc id.
	slot uint16
	// subLine marks a registered fallback-lock line (SetSubscriptionLines);
	// holderRead marks a line the fallback holder has read during its hold.
	subLine    bool
	holderRead bool
}

// resolve applies the Config defaults. A write set larger than
// lineMeta.slot can index panics rather than wrapping slots.
func (cfg Config) resolve() (cost sim.CostModel, maxRead, maxWrite int) {
	cost = cfg.Cost
	if cost == (sim.CostModel{}) {
		cost = sim.DefaultCost()
	}
	maxRead = cfg.MaxReadLines
	if maxRead == 0 {
		maxRead = 4096
	}
	maxWrite = cfg.MaxWriteLines
	if maxWrite == 0 {
		maxWrite = 512
	}
	if maxWrite > math.MaxUint16+1 {
		panic(fmt.Sprintf("htm: MaxWriteLines %d exceeds the %d write lines a slot can index", maxWrite, math.MaxUint16+1))
	}
	return cost, maxRead, maxWrite
}

// divisor tests x%d == 0 for a fixed d > 0 with a multiply, a rotate and a
// compare instead of a 64-bit division (Granlund and Montgomery; Hacker's
// Delight §10-17): with d = d0·2^k and d0 odd, x is a multiple of d iff
// x·d0⁻¹ mod 2^64, rotated right by k, is at most ⌊(2^64−1)/d⌋. Multiplying
// by d0⁻¹ maps the multiples of d0 one-to-one onto [0, ⌊(2^64−1)/d0⌋], and
// the rotate moves any of x's k low bits that are set above the bound.
type divisor struct {
	inv   uint64 // d0⁻¹ mod 2^64
	shift int    // k
	limit uint64 // ⌊(2^64−1)/d⌋
}

// newDivisor precomputes the test for d > 0.
func newDivisor(d uint64) divisor {
	k := bits.TrailingZeros64(d)
	d0 := d >> k
	// Newton's iteration doubles the correct low bits of the inverse each
	// step; d0 is its own inverse mod 8, so five steps reach 96 ≥ 64.
	inv := d0
	for i := 0; i < 5; i++ {
		inv *= 2 - d0*inv
	}
	return divisor{inv: inv, shift: k, limit: math.MaxUint64 / d}
}

// divides reports whether x%d == 0.
func (v divisor) divides(x uint64) bool {
	return bits.RotateLeft64(x*v.inv, -v.shift) <= v.limit
}

// spuriousDraws precomputes cost's spurious-abort tests: a multiple of
// SpuriousDenom, and of SpuriousDenom/HTSpuriousDiv (at least 1; the
// divisor defaults to 16) while an SMT sibling is active.
func spuriousDraws(cost sim.CostModel) (plain, smt divisor) {
	d := cost.SpuriousDenom
	if d == 0 {
		return divisor{}, divisor{}
	}
	div := cost.HTSpuriousDiv
	if div == 0 {
		div = 16
	}
	return newDivisor(d), newDivisor(max(d/div, 1))
}

// NewMemory creates a transactional memory shared by the machine's procs.
func NewMemory(m *sim.Machine, cfg Config) *Memory {
	cost, maxRead, maxWrite := cfg.resolve()
	spurious, spuriousSMT := spuriousDraws(cost)
	store := mem.NewStore(cfg.Words)
	meta := make([]lineMeta, store.Lines())
	for i := range meta {
		meta[i].writer = -1
		meta[i].owner = -1
	}
	return &Memory{
		store:        store,
		meta:         meta,
		cur:          make([]*Tx, m.Procs()),
		txs:          make([]Tx, m.Procs()),
		cost:         cost,
		maxRead:      maxRead,
		maxWrite:     maxWrite,
		policy:       cfg.Policy,
		spurious:     spurious,
		spuriousSMT:  spuriousSMT,
		fixDangerous: cfg.AbortOnDangerousWhileUnsubscribed,
		fbHolder:     -1,
	}
}

// Reset returns the Memory to the state NewMemory(mach, cfg) would produce,
// reusing the store's backing arrays, the conflict metadata and the pooled
// per-proc transaction state where the new geometry allows. Any attached
// collector or tracer is detached (as on a fresh Memory). Like
// sim.Machine.Reset, it must only be called between runs, and a reset
// Memory behaves bit-for-bit like a freshly constructed one.
func (m *Memory) Reset(mach *sim.Machine, cfg Config) {
	m.cost, m.maxRead, m.maxWrite = cfg.resolve()
	m.spurious, m.spuriousSMT = spuriousDraws(m.cost)
	m.policy = cfg.Policy
	m.store.Reset(cfg.Words)
	lines := m.store.Lines()
	if cap(m.meta) >= lines {
		m.meta = m.meta[:lines]
	} else {
		m.meta = make([]lineMeta, lines)
	}
	for i := range m.meta {
		m.meta[i] = lineMeta{writer: -1, owner: -1}
	}
	procs := mach.Procs()
	if cap(m.cur) >= procs {
		m.cur = m.cur[:procs]
	} else {
		m.cur = make([]*Tx, procs)
	}
	for i := range m.cur {
		m.cur[i] = nil
	}
	// Keep existing Tx pools (their member lists and write buffers empty
	// at the next reset); only grow for extra procs.
	if len(m.txs) < procs {
		m.txs = append(m.txs, make([]Tx, procs-len(m.txs))...)
	}
	m.tracer = nil
	m.col = nil
	m.fixDangerous = cfg.AbortOnDangerousWhileUnsubscribed
	m.subLines = m.subLines[:0]
	m.fbHolder = -1
	m.holderReads = m.holderReads[:0]
}

// Store exposes the raw word store (for setup code and allocators).
func (m *Memory) Store() *mem.Store { return m.store }

// SetTracer attaches the swimlane tracer (nil turns tracing off).
func (m *Memory) SetTracer(t *trace.Tracer) { m.tracer = t }

// SetCollector attaches a metrics collector, and through it its sinks, fed
// by every transactional and lock event: abort causes, read/write-set
// sizes, and the conflicting cache line for the hot-line profiler (nil
// turns observability off).
func (m *Memory) SetCollector(c *obs.Collector) { m.col = c }

// observed reports whether a collector or tracer is attached. Emission
// sites test it before building an event, so an unobserved run pays one
// branch per site.
func (m *Memory) observed() bool { return m.col != nil || m.tracer != nil }

// event readies m.ev as a kind-k event from p, stamped with p's clock and
// id, for the caller to fill in place and deliver with emit. It zeroes the
// commit and abort payload a previous emission may have left; htm sets no
// other field, so the rest stays zero from construction. The sinks get a
// pointer to m.ev because a pointer to a local event would escape to the
// heap, and filling it field by field writes only what an emission sets
// instead of copying a whole Event in.
func (m *Memory) event(p *sim.Proc, k obs.Kind) *obs.Event {
	ev := &m.ev
	ev.Kind, ev.When, ev.Tid = k, p.Clock(), p.ID()
	ev.ReadLines, ev.WriteLines = 0, 0
	ev.Cause, ev.Arg, ev.Code = "", 0, 0
	ev.ConflictLine, ev.ConflictTid, ev.ConflictNT, ev.ConflictWhen = 0, 0, false, 0
	return ev
}

// emit delivers m.ev to the attached collector and tracer.
func (m *Memory) emit() {
	m.col.Observe(&m.ev)
	m.tracer.Observe(&m.ev)
}

// emitKind emits an event of kind k with no payload.
func (m *Memory) emitKind(p *sim.Proc, k obs.Kind) {
	if m.observed() {
		m.event(p, k)
		m.emit()
	}
}

// TraceLockWait records the start of a blocking main-lock acquisition —
// schemes call this immediately before Lock on their fallback paths, so the
// flight recorder can split a fallback's cost into waiting (contention) and
// holding (dwell). It marks intent, not ownership, so the swimlane tracer
// and ownership-tracking sinks ignore the wait phase.
func (m *Memory) TraceLockWait(p *sim.Proc) { m.emitKind(p, obs.KindLockWait) }

// TraceAuxWait records the start of a blocking auxiliary-lock acquisition
// (SCM serializing-path entry begins queueing).
func (m *Memory) TraceAuxWait(p *sim.Proc) { m.emitKind(p, obs.KindAuxWait) }

// TraceLock records a non-speculative main-lock acquisition — schemes call
// this on their fallback paths so timelines show lemming triggers and the
// causality engine can tie cascades to the acquire that rooted them.
func (m *Memory) TraceLock(p *sim.Proc) {
	m.fbHolder = p.ID()
	for _, l := range m.holderReads {
		m.meta[l].holderRead = false
	}
	m.holderReads = m.holderReads[:0]
	m.emitKind(p, obs.KindLockAcquire)
}

// TraceUnlock records the matching release.
func (m *Memory) TraceUnlock(p *sim.Proc) {
	m.fbHolder = -1
	m.emitKind(p, obs.KindLockRelease)
}

// TraceAuxLock records an SCM auxiliary-lock acquisition (serializing-path
// entry). SCM schemes call it at the instant their aux dwell starts, so the
// traced slice duration equals Outcome.AuxDwell.
func (m *Memory) TraceAuxLock(p *sim.Proc) { m.emitKind(p, obs.KindAuxAcquire) }

// TraceAuxUnlock records the matching auxiliary release (dwell end).
func (m *Memory) TraceAuxUnlock(p *sim.Proc) { m.emitKind(p, obs.KindAuxRelease) }

// SetSubscriptionLines registers the fallback lock's cache lines for
// subscription tracking: a transaction counts as "subscribed" once it has
// read any registered line transactionally (plain Load, HLE ElideRMW, or a
// commit-time HeldTx check all qualify — what matters is that the line is
// in the read set, so the holder's acquiring store dooms the transaction).
// Registering an empty slice disables tracking. The registration survives
// until the next SetSubscriptionLines or Reset.
func (m *Memory) SetSubscriptionLines(lines []int) {
	for _, l := range m.subLines {
		m.meta[l].subLine = false
	}
	m.subLines = m.subLines[:0]
	for _, l := range lines {
		if !m.meta[l].subLine {
			m.meta[l].subLine = true
			m.subLines = append(m.subLines, l)
		}
	}
}

// DangerousFixEnabled reports whether AbortOnDangerousWhileUnsubscribed is
// active on this memory.
func (m *Memory) DangerousFixEnabled() bool { return m.fixDangerous }

// FallbackHolder returns the proc id currently holding the fallback lock
// non-speculatively (as reported by TraceLock/TraceUnlock), or -1.
func (m *Memory) FallbackHolder() int { return m.fbHolder }

// Cost returns the memory's cost model.
func (m *Memory) Cost() sim.CostModel { return m.cost }

// InTx reports whether proc p currently runs inside a transaction.
func (m *Memory) InTx(p *sim.Proc) bool { return m.cur[p.ID()] != nil }

// Tx returns p's current transaction, or nil.
func (m *Memory) Tx(p *sim.Proc) *Tx { return m.cur[p.ID()] }

// --- Non-transactional (globally visible) accesses -------------------------
//
// These model ordinary instructions: they take effect immediately and their
// coherency traffic dooms conflicting transactions.

// assertNotInTx guards against simulated programs issuing non-transactional
// accesses from inside a transaction, which this model does not define.
func (m *Memory) assertNotInTx(p *sim.Proc) {
	if m.cur[p.ID()] != nil {
		panic("htm: non-transactional access issued inside a transaction")
	}
}

// readCost records p as a sharer of the line whose metadata is lm and
// returns the read's charge: a hit if p had the line cached, else a miss.
// Callers Advance by it, which may park p, so they read lm's conflict state
// only after that.
func (m *Memory) readCost(p *sim.Proc, lm *lineMeta) uint64 {
	me := uint64(1) << p.ID()
	if lm.sharers&me != 0 {
		return m.cost.MemHit
	}
	lm.sharers |= me
	return m.cost.MemMiss
}

// writeCost takes the line whose metadata is lm exclusive for p, so every
// other thread's next access will miss, and returns the write's charge: a
// hit if p already held it exclusively, else a miss. As with readCost, the
// caller's Advance may park p.
func (m *Memory) writeCost(p *sim.Proc, lm *lineMeta) uint64 {
	me := uint64(1) << p.ID()
	hit := lm.owner == int16(p.ID()) && lm.sharers == me
	lm.owner = int16(p.ID())
	lm.sharers = me
	if hit {
		return m.cost.MemHit
	}
	return m.cost.MemMiss
}

// LoadNT performs a non-transactional load. It dooms any transaction that
// has the line in its write set (a read coherency message).
func (m *Memory) LoadNT(p *sim.Proc, a mem.Addr) int64 {
	m.assertNotInTx(p)
	l := mem.LineOf(a)
	lm := &m.meta[l]
	p.Advance(m.readCost(p, lm))
	m.doomForRead(p, l, lm)
	if m.fixDangerous && p.ID() == m.fbHolder && !lm.holderRead {
		// The dangerous-action fix needs the holder's read footprint: a
		// plain load leaves no conflict-metadata trace (only stores doom),
		// which is exactly the asymmetry lazy subscription exploits.
		lm.holderRead = true
		m.holderReads = append(m.holderReads, l)
	}
	return m.store.Load(a)
}

// writeNT is the coherency half of every non-transactional write: it
// charges p for taking a's line exclusive, then dooms every transaction
// holding the line in its read or write set.
func (m *Memory) writeNT(p *sim.Proc, a mem.Addr) {
	m.assertNotInTx(p)
	l := mem.LineOf(a)
	lm := &m.meta[l]
	p.Advance(m.writeCost(p, lm))
	m.doomForWrite(p, l, lm)
}

// StoreNT performs a non-transactional store. It dooms every transaction
// holding the line in its read or write set, then wakes spinners.
func (m *Memory) StoreNT(p *sim.Proc, a mem.Addr, v int64) {
	m.writeNT(p, a)
	m.store.StoreWord(a, v)
	m.store.WakeWaiters(a, p, sim.WakeStore, m.cost.WakeLatency)
}

// CASNT performs a non-transactional compare-and-swap, returning the prior
// value and whether the swap happened. Even a failed CAS acquires the line
// exclusively, so it dooms like a store.
func (m *Memory) CASNT(p *sim.Proc, a mem.Addr, old, new int64) (int64, bool) {
	m.writeNT(p, a)
	prev := m.store.Load(a)
	if prev != old {
		return prev, false
	}
	m.store.StoreWord(a, new)
	m.store.WakeWaiters(a, p, sim.WakeStore, m.cost.WakeLatency)
	return prev, true
}

// SwapNT performs a non-transactional atomic exchange.
func (m *Memory) SwapNT(p *sim.Proc, a mem.Addr, v int64) int64 {
	m.writeNT(p, a)
	prev := m.store.Load(a)
	m.store.StoreWord(a, v)
	m.store.WakeWaiters(a, p, sim.WakeStore, m.cost.WakeLatency)
	return prev
}

// FetchAddNT performs a non-transactional atomic fetch-and-add.
func (m *Memory) FetchAddNT(p *sim.Proc, a mem.Addr, delta int64) int64 {
	m.writeNT(p, a)
	prev := m.store.Load(a)
	m.store.StoreWord(a, prev+delta)
	m.store.WakeWaiters(a, p, sim.WakeStore, m.cost.WakeLatency)
	return prev
}

// WaitNT spins (in virtual time) until the word at a differs from v.
func (m *Memory) WaitNT(p *sim.Proc, a mem.Addr, v int64) {
	m.WaitCond(p, a, func(cur int64) bool { return cur != v })
}

// WaitCond models a non-transactional test loop: it spins until cond holds
// for the word at a. After a few paid spin iterations the thread parks on
// the line and is woken by the next store to it (the store pays the
// coherency wake latency), then re-tests.
func (m *Memory) WaitCond(p *sim.Proc, a mem.Addr, cond func(v int64) bool) {
	m.WaitPred(p, []mem.Addr{a}, func() bool { return cond(m.store.Load(a)) })
}

// WaitPred spins until pred holds. pred may read any simulated memory (via
// raw loads; the periodic re-test below is charged as one access). The
// thread parks on every line in watch; a store to any of them re-evaluates
// pred. Lock implementations use this when the "free" condition spans
// several words (e.g. the CLH tail and its node's flag).
func (m *Memory) WaitPred(p *sim.Proc, watch []mem.Addr, pred func() bool) {
	m.assertNotInTx(p)
	for {
		p.Advance(m.cost.MemHit)
		if pred() {
			return
		}
		p.Advance(m.cost.SpinIter)
		if pred() { // re-test before parking (no extra charge)
			continue
		}
		for _, a := range watch {
			m.store.AddWaiter(a, p)
		}
		if pred() { // lost a race within this virtual instant
			for _, a := range watch {
				m.store.RemoveWaiter(a, p)
			}
			continue
		}
		p.Block(sim.NoDeadline)
		// Some watched lines may not have been stored; drop stale
		// registrations before re-testing.
		for _, a := range watch {
			m.store.RemoveWaiter(a, p)
		}
	}
}

// --- Conflict dooming -------------------------------------------------------

// doomForRead dooms the transaction (if any) holding line l, whose
// metadata is lm, in its write set.
func (m *Memory) doomForRead(p *sim.Proc, l int, lm *lineMeta) {
	if lm.writer >= 0 && int(lm.writer) != p.ID() {
		m.doom(p, m.cur[lm.writer], l)
	}
}

// doomForWrite dooms every transaction holding line l, whose metadata is
// lm, in its read or write set, except p's own.
func (m *Memory) doomForWrite(p *sim.Proc, l int, lm *lineMeta) {
	if lm.writer >= 0 && int(lm.writer) != p.ID() {
		m.doom(p, m.cur[lm.writer], l)
	}
	mask := lm.readers
	for mask != 0 {
		tid := bits.TrailingZeros64(mask)
		mask &^= 1 << tid
		if tid == p.ID() {
			continue
		}
		m.doom(p, m.cur[tid], l)
	}
}

// doom marks tx aborted, records the conflict's location, requestor, time
// and transactional-ness for the abort status, and wakes the victim if it is
// blocked inside the transaction. The victim observes the doom at its next
// transactional step.
func (m *Memory) doom(by *sim.Proc, tx *Tx, line int) {
	if tx == nil || tx.doomed {
		return
	}
	tx.doomed = true
	tx.doomLine = line
	tx.doomTid = by.ID()
	// The requestor was non-transactional iff it runs no transaction right
	// now: a real lock acquisition or a lock holder's plain access.
	tx.doomNT = m.cur[by.ID()] == nil
	tx.doomWhen = by.Clock()
	by.Wake(tx.p, sim.WakeDoom, m.cost.WakeLatency)
}
