// Package sim implements a deterministic discrete-event simulation of a
// small shared-memory multiprocessor.
//
// Each simulated hardware thread (a Proc) runs its body on a carrier, a
// coroutine that outlives the Run that used it, so at most one Proc
// executes at any moment. There is no scheduler loop: a Proc that parks, or
// whose body ends, itself dispatches the runnable Proc with the smallest
// virtual clock and switches straight to that Proc's carrier, and Run's
// goroutine only starts the first Proc and waits for the run to end.
// Carriers wait in a free list for the next body, so a warm Run starts no
// goroutine. Because execution is cooperatively serialized, all simulated
// machine state (memory words, transaction metadata, statistics) can be
// plain Go data with no locking, and every run is bit-for-bit reproducible
// for a given seed regardless of the host's core count.
//
// Virtual time is measured in cycles. Procs advance their clock explicitly
// (Advance), block on events with optional deadlines (Block), and are woken
// by other Procs (Wake). Throughput and speedup in the benchmark harness are
// ratios of operations to virtual cycles, so an 8-thread experiment models
// true 8-way parallelism even on a 2-core host.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// MaxProcs is the largest number of simulated hardware threads a Machine
// supports. The transactional-memory layer identifies reader sets with a
// 64-bit mask, which fixes this bound.
const MaxProcs = 64

// NoDeadline marks a Block call with no timeout.
const NoDeadline = math.MaxUint64

// ErrDeadlock is returned by Run when every live Proc is blocked without a
// deadline, so virtual time can never advance again.
var ErrDeadlock = errors.New("sim: deadlock: all procs blocked with no deadline")

// WakeCause tells a blocked Proc why it resumed.
type WakeCause int8

// Wake causes, reported by Block.
const (
	// WakeStore means another Proc wrote the awaited location (or otherwise
	// explicitly woke this Proc).
	WakeStore WakeCause = iota + 1
	// WakeTimeout means the Block deadline expired.
	WakeTimeout
	// WakeDoom means the Proc's running transaction was doomed while it was
	// blocked.
	WakeDoom
)

type procState int8

const (
	stateNew procState = iota + 1
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

// killSentinel unwinds a parked body during machine teardown.
type killSentinel struct{}

// notDue is the dispatch key of a Proc that cannot run until another Proc
// wakes it: running, done, without a body, or blocked with no deadline.
const notDue = math.MaxUint64

// maxDueTime caps the time in a dispatch key so that the key keeps the id
// in its low bits and stays below notDue. It is about 2.7 years of
// simulated time at 3.4 GHz; later times compare as equal.
const maxDueTime = 1<<58 - 2

// dueKey is the dispatch key of Proc id runnable at effective time t: the
// time above the id, so the smallest key is the earliest Proc and equal
// times go to the lower id (MaxProcs fits the id in 6 bits).
func dueKey(t uint64, id int) uint64 { return min(t, maxDueTime)<<6 | uint64(id) }

// Config parameterizes a Machine.
type Config struct {
	// Procs is the number of simulated hardware threads (1..MaxProcs).
	Procs int
	// Seed feeds each Proc's deterministic RNG.
	Seed uint64
	// Quantum bounds how far (in cycles) the running Proc's clock may lead
	// the earliest other runnable Proc before control is handed over. Zero
	// gives strict min-clock-first interleaving (exact virtual-time order of
	// every access); larger values trade a bounded clock skew — akin to the
	// store-visibility skew of a real memory hierarchy — for far fewer
	// scheduler handoffs. Execution remains deterministic and state
	// mutations remain serialized at any quantum.
	Quantum uint64
	// Cores models simultaneous multithreading: when 0 < Cores < Procs,
	// procs share physical cores round-robin (proc i runs on core
	// i%Cores), and a proc whose core-sibling is concurrently active pays
	// HTSlowdownPercent extra cycles on every Advance — the execution-
	// resource sharing of a hyperthread pair. The paper's testbed is a
	// 4-core/8-thread Haswell; Cores=4 with Procs=8 reproduces that
	// pressure. 0 (default) gives one proc per core.
	Cores int
	// HTSlowdownPercent is the extra cost (percent) a proc pays while its
	// core-sibling is active. 0 selects the default of 60.
	HTSlowdownPercent int
	// JitterCycles perturbs the schedule for adversarial testing: every
	// scheduler dispatch charges the chosen Proc up to JitterCycles-1 extra
	// cycles drawn from a machine-level deterministic RNG, shifting which
	// Proc wins subsequent min-clock races. The perturbation models
	// dispatch-latency noise a real machine exhibits (interrupts, frequency
	// ramps): executions stay bit-for-bit deterministic functions of
	// (Config, bodies), but different seeds explore different interleavings
	// of the same workload. 0 (default) disables perturbation, leaving
	// production schedules untouched.
	JitterCycles uint64
}

// Machine is a simulated multiprocessor: a set of Procs sharing one virtual
// clock domain. Create one with New, add thread bodies with Go, and execute
// with Run.
type Machine struct {
	cfg        Config
	procs      []*Proc
	nLive      int
	htSlowdown int // percent surcharge while a core-sibling is active
	// tearing is set while Run unwinds the bodies still parked after a
	// deadlock, a body panic or a body's Goexit.
	tearing bool
	// jrng is the machine-level xorshift64* state driving schedule jitter
	// (Config.JitterCycles). It is stepped only at dispatch, so zero-jitter
	// machines never touch it and their schedules are unchanged.
	jrng uint64
	// otherMin caches the smallest effective time among runnable Procs other
	// than the running one (MaxUint64 when none). dispatch recomputes it,
	// and it can only decrease while a Proc runs (the single-runner
	// invariant: only the running Proc mutates machine state, and the only
	// state change that makes another Proc runnable earlier is Wake). It
	// lets Advance keep running with an O(1) compare instead of an O(P) scan
	// per memory access.
	otherMin uint64
	// due holds each Proc's dispatch key (dueKey, or notDue), kept current
	// wherever a Proc's state changes, for pickNext to scan.
	due []uint64
	// runWaits is the coro Run's goroutine is blocked on while bodies run.
	runWaits *coro
	// How the run ended, besides every body returning: err is ErrDeadlock
	// after a deadlock, raised the first panic that escaped a body, and
	// dying the carrier whose body called runtime.Goexit.
	err    error
	raised any
	dying  *carrier
}

// Proc is one simulated hardware thread. All methods must be called from
// this Proc's body (except Wake, which any running Proc may call on any
// other Proc).
type Proc struct {
	id    int
	m     *Machine
	clock uint64
	state procState
	// c is the carrier bound to this Proc's body, from its first dispatch
	// until the run ends.
	c         *carrier
	deadline  uint64
	rng       uint64
	body      func(*Proc)
	siblings  []*Proc // procs sharing this proc's physical core (SMT)
	wakeFloor uint64  // clock floor applied when the proc is next scheduled
	// pendingCause is the cause recorded by Wake, delivered at dispatch.
	pendingCause WakeCause
	// lastWake is the cause delivered by the most recent dispatch.
	lastWake WakeCause
}

// New creates a Machine with cfg.Procs simulated threads and no bodies yet.
func New(cfg Config) (*Machine, error) {
	if cfg.Procs < 1 || cfg.Procs > MaxProcs {
		return nil, fmt.Errorf("sim: Procs must be in [1,%d], got %d", MaxProcs, cfg.Procs)
	}
	m := &Machine{
		cfg:  cfg,
		jrng: mixSeed(cfg.Seed, uint64(MaxProcs)+1),
		due:  make([]uint64, cfg.Procs),
	}
	m.procs = make([]*Proc, cfg.Procs)
	for i := range m.procs {
		m.procs[i] = &Proc{
			id:       i,
			m:        m,
			state:    stateNew,
			deadline: NoDeadline,
			rng:      mixSeed(cfg.Seed, uint64(i)),
		}
	}
	m.initTopology()
	return m, nil
}

// initTopology derives the SMT sibling groups and slowdown surcharge from
// the current Config. Called by New and Reset.
func (m *Machine) initTopology() {
	cfg := m.cfg
	m.htSlowdown = 0
	if cfg.Cores > 0 && cfg.Cores < cfg.Procs {
		m.htSlowdown = cfg.HTSlowdownPercent
		if m.htSlowdown == 0 {
			m.htSlowdown = 60
		}
		// Group procs by physical core in one pass (proc i runs on core
		// i%Cores); each proc's siblings are its core group minus itself,
		// in increasing id order.
		groups := make([][]*Proc, cfg.Cores)
		for _, p := range m.procs {
			c := p.id % cfg.Cores
			groups[c] = append(groups[c], p)
		}
		for _, g := range groups {
			for i, p := range g {
				if len(g) < 2 {
					continue
				}
				sibs := make([]*Proc, 0, len(g)-1)
				sibs = append(sibs, g[:i]...)
				sibs = append(sibs, g[i+1:]...)
				p.siblings = sibs
			}
		}
	}
}

// Reset returns the Machine to the state New(cfg) would produce, reusing
// the proc table where cfg.Procs allows. It is the rebuild-free path for
// pooled simulator instances: a Reset machine runs the same bodies to
// bit-for-bit the same execution a freshly constructed one would. Reset
// must only be called after Run has returned (or before Run was ever
// called) — never while procs are live.
func (m *Machine) Reset(cfg Config) error {
	if cfg.Procs < 1 || cfg.Procs > MaxProcs {
		return fmt.Errorf("sim: Procs must be in [1,%d], got %d", MaxProcs, cfg.Procs)
	}
	m.cfg = cfg
	m.nLive = 0
	m.tearing = false
	m.jrng = mixSeed(cfg.Seed, uint64(MaxProcs)+1)
	m.otherMin = 0
	if len(m.procs) != cfg.Procs {
		old := m.procs
		m.procs = make([]*Proc, cfg.Procs)
		copy(m.procs, old)
		m.due = make([]uint64, cfg.Procs)
	}
	for i, p := range m.procs {
		if p == nil {
			p = &Proc{id: i}
			m.procs[i] = p
		}
		p.m = m
		p.clock = 0
		p.state = stateNew
		p.deadline = NoDeadline
		p.rng = mixSeed(cfg.Seed, uint64(i))
		p.body = nil
		p.siblings = nil
		p.wakeFloor = 0
		p.pendingCause = 0
		p.lastWake = 0
	}
	m.initTopology()
	return nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Procs returns the number of simulated threads.
func (m *Machine) Procs() int { return m.cfg.Procs }

// Proc returns the simulated thread with the given id. It is intended for
// wiring bodies and inspecting clocks after Run; bodies receive their own
// *Proc as an argument.
func (m *Machine) Proc(id int) *Proc { return m.procs[id] }

// Go assigns body to the next unassigned Proc and returns it. All bodies
// must be assigned before Run. Go panics if every Proc already has a body
// (a configuration error, caught at setup time).
func (m *Machine) Go(body func(*Proc)) *Proc {
	for _, p := range m.procs {
		if p.body == nil {
			p.body = body
			return p
		}
	}
	panic("sim: Go called more times than Config.Procs")
}

// Run executes every assigned body to completion in virtual time and returns
// the first scheduling failure (e.g. ErrDeadlock), if any. Procs without a
// body simply never run. A panic escaping a body is re-raised by Run, and a
// body's runtime.Goexit ends the goroutine that called Run. Run must be
// called exactly once per construction or Reset, and not from a goroutine
// locked to its OS thread: carriers are shared by every Machine in the
// process, and switching to a coroutine across thread locks is fatal.
//
// Run dispatches the runnable Proc with the smallest virtual clock (a
// blocked Proc with a deadline is runnable at max(clock, deadline)) and
// then waits. From there each Proc that parks in Advance or Block, or whose
// body returns, dispatches the next itself and switches straight to it;
// the last one, or the one that finds a deadlock or a panic, switches back
// to Run.
func (m *Machine) Run() error {
	m.nLive = 0
	for i, p := range m.procs {
		m.due[i] = notDue
		if p.body == nil {
			p.state = stateDone
			continue
		}
		p.state = stateReady
		m.due[i] = dueKey(p.clock, i)
		m.nLive++
	}
	defer m.finish()
	if m.nLive > 0 {
		handoff(&m.runWaits, m.dispatch().c.waits)
	}
	return m.err
}

// dispatch is the scheduler's one choice point. It takes the Proc
// pickNext chooses, applies the dispatch charges (a deadline wake moves the
// clock to the deadline, then the wake floor, then jitter), marks it
// running and binds it a carrier on its first dispatch. The caller then
// switches to that carrier. It returns nil when no Proc can ever run again.
func (m *Machine) dispatch() *Proc {
	p, otherMin := m.pickNext()
	if p == nil {
		return nil
	}
	cause := WakeTimeout
	if p.state == stateReady {
		// Only the winner's pending cause is consumed: a Proc that Wake
		// readied and that loses this pick still reports its own cause.
		cause, p.pendingCause = p.pendingCause, 0
		if cause == 0 {
			cause = WakeStore
		}
	} else {
		if p.deadline > p.clock {
			p.clock = p.deadline
		}
		p.deadline = NoDeadline
	}
	if p.wakeFloor > p.clock {
		p.clock = p.wakeFloor
	}
	p.wakeFloor = 0
	if j := m.cfg.JitterCycles; j > 0 {
		// Charge the dispatch-latency perturbation before p runs. p may
		// now trail otherMin; its first Advance then yields, which is
		// exactly the interleaving shift the jitter exists to cause.
		p.clock += m.jitterRand() % j
	}
	m.otherMin = otherMin
	p.state = stateRunning
	m.due[p.id] = notDue
	p.lastWake = cause
	if p.c == nil {
		p.c = getCarrier(p)
	}
	return p
}

// pickNext chooses the runnable Proc with the smallest effective time,
// breaking ties by Proc id, and reports the smallest effective time among
// the other runnable Procs (MaxUint64 when none), which dispatch caches as
// otherMin. It is one pass of min and second-min over the dispatch keys,
// with no branch on a Proc's state. It returns nil if nothing can ever run
// again.
func (m *Machine) pickNext() (*Proc, uint64) {
	best, second := uint64(notDue), uint64(notDue)
	for _, k := range m.due {
		second = min(second, max(best, k))
		best = min(best, k)
	}
	if best == notDue {
		return nil, 0
	}
	other := second >> 6
	if second == notDue {
		other = math.MaxUint64
	}
	return m.procs[best%MaxProcs], other
}

// finish ends a run however it ended. It unwinds the bodies still parked,
// puts every carrier of the run back on its own coro and into the free
// list, and then lets a body's runtime.Goexit end Run's goroutine, or
// re-raises the first panic that escaped a body.
func (m *Machine) finish() {
	m.teardown()
	m.restore()
	dying, raised := m.dying, m.raised
	m.err, m.raised, m.dying = nil, nil, nil
	if dying != nil {
		// The dying carrier returns from exit once this goroutine blocks
		// on its coro; its goroutine's end then ends this one too.
		handoff(&m.runWaits, &dying.coro)
	}
	if raised != nil {
		panic(raised)
	}
}

// teardown unwinds the bodies still parked when a run stops early, in id
// order: each is switched to with tearing set, so its park panics with
// killSentinel, running the body's deferred calls, and its carrier
// switches back. A Proc that never ran is not started, and a body that
// called runtime.Goexit is the one still running; it exits in finish.
func (m *Machine) teardown() {
	if m.nLive == 0 {
		return
	}
	m.tearing = true
	for _, p := range m.procs {
		if p.c != nil && (p.state == stateReady || p.state == stateBlocked) {
			handoff(&m.runWaits, p.c.waits)
		}
		p.state = stateDone
	}
	m.nLive = 0
}

// restore puts every carrier of the run back on its own coro and returns
// all but a dying one to the free list. A switch leaves the switching
// goroutine blocked on the coro of the goroutine it woke, so at the end of
// a run the carriers wait on each other's coros. Switching on the coro of
// a carrier that is not on its own wakes the carrier waiting there, which
// settles onto its own coro and so wakes the next, until the carrier whose
// coro this was settles and wakes Run's goroutine again. A carrier that
// another machine takes must wait on its own coro: the goroutine its
// body's Goexit wakes is the one waiting there, which is then always a
// goroutine of the run that took it.
func (m *Machine) restore() {
	for _, p := range m.procs {
		if c := p.c; c != nil && c.waits != &c.coro {
			handoff(&m.runWaits, &c.coro)
		}
	}
	carriers.Lock()
	for _, p := range m.procs {
		if c := p.c; c != nil && c != m.dying {
			c.p = nil
			carriers.free = append(carriers.free, c)
		}
		p.c = nil
	}
	carriers.Unlock()
}

// handoff blocks the running goroutine, whose wait record is *self, on the
// coro to, and runs the goroutine blocked there. It returns when another
// goroutine switches on the coro the caller then waits on.
func handoff(self **coro, to *coro) {
	*self = to
	to.swap()
}

// carrier runs Proc bodies, one at a time, on a coroutine that outlives the
// Run that used it. Between runs it waits in the carriers free list, on
// its own coro, and references no Proc, body or Machine.
type carrier struct {
	coro
	p *Proc
	// panicked is the value of a panic that escaped p's body.
	panicked any
	// waits is the coro this carrier's goroutine is blocked on while it
	// does not run.
	waits *coro
}

// carriers is the free list. It is package-level because a suspended
// coroutine is a goroutine, which the collector never frees: carriers owned
// by a Machine would leak with it. A sync.Pool would drop entries at a
// collection with no hook to stop them, leaking the same way. A run keeps
// the carriers it bound, one per body it dispatched, until it ends, so the
// list holds at most as many carriers as the runs in progress at once ever
// bound.
var carriers struct {
	sync.Mutex
	free []*carrier
}

// getCarrier binds a carrier from the free list, or a new one, to p.
func getCarrier(p *Proc) *carrier {
	carriers.Lock()
	var c *carrier
	if n := len(carriers.free); n > 0 {
		c = carriers.free[n-1]
		carriers.free = carriers.free[:n-1]
	}
	carriers.Unlock()
	if c == nil {
		c = new(carrier)
		c.waits = &c.coro
		c.start(c.loop)
	}
	c.p = p
	return c
}

// loop is the carrier's coroutine: run the bound body, hand control on,
// and once the run is over settle back onto the carrier's own coro, where
// the next body's dispatch finds it.
func (c *carrier) loop() {
	defer c.exit()
	for {
		c.call()
		c.ended()
		c.settle()
	}
}

// call runs the bound Proc's body. A panic is recorded for Run to re-raise,
// except the one that unwinds a parked body during teardown.
func (c *carrier) call() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				c.panicked = r
			}
		}
	}()
	c.p.body(c.p)
}

// ended retires the Proc whose body just returned or panicked, and hands
// control to the next Proc, or to Run's goroutine once the run is over.
// It returns when the carrier is woken again: by restore, or for the next
// body.
func (c *carrier) ended() {
	p := c.p
	m := p.m
	p.state = stateDone
	m.nLive--
	c.p = nil
	if c.panicked != nil && m.raised == nil {
		m.raised = c.panicked
	}
	c.panicked = nil
	to := m.runWaits
	if !m.tearing && m.raised == nil && m.nLive > 0 {
		if q := m.dispatch(); q != nil {
			to = q.c.waits
		} else {
			m.err = ErrDeadlock
		}
	}
	handoff(&c.waits, to)
}

// settle is one step of restore's chain: a carrier woken while it is not
// on its own coro blocks on it, waking the goroutine that waited there.
func (c *carrier) settle() {
	if c.waits != &c.coro {
		handoff(&c.waits, &c.coro)
	}
}

// exit runs when a body calls runtime.Goexit, after the body's deferred
// calls. It hands control to Run's goroutine, which unwinds the other
// bodies and restores the carriers (this one settles when its turn comes),
// and returns once Run's goroutine blocks on this carrier's coro: the
// Goexit then ends this goroutine, and its coro's end ends Run's.
func (c *carrier) exit() {
	m := c.p.m
	m.dying = c
	handoff(&c.waits, m.runWaits)
	c.settle()
}

// ID returns the Proc's index in [0, Machine.Procs()).
func (p *Proc) ID() int { return p.id }

// Clock returns the Proc's virtual time in cycles.
func (p *Proc) Clock() uint64 { return p.clock }

// Machine returns the owning Machine.
func (p *Proc) Machine() *Machine { return p.m }

// Advance adds cycles to the Proc's virtual clock and yields if another
// runnable Proc is now earlier in virtual time. Memory-model layers call
// Advance with the access cost *before* touching shared simulated state, so
// state mutations occur in nondecreasing virtual-time order.
//
// Under an SMT configuration (Config.Cores), the charge is inflated while
// the proc's core-sibling is active.
func (p *Proc) Advance(cycles uint64) {
	if p.m.htSlowdown > 0 && p.SiblingActive() {
		cycles += cycles * uint64(p.m.htSlowdown) / 100
	}
	p.clock += cycles
	p.maybeYield()
}

// SiblingActive reports whether another proc sharing this proc's physical
// core is currently runnable (ready or running). Always false without an
// SMT configuration. The htm layer also consults this to raise the
// spurious-abort pressure of a shared L1.
func (p *Proc) SiblingActive() bool {
	for _, q := range p.siblings {
		if q.state == stateReady || q.state == stateRunning {
			return true
		}
	}
	return false
}

// maybeYield parks the Proc when its clock has run past the earliest other
// runnable Proc (tolerating Config.Quantum cycles of lead). The check is one
// compare against the cached otherMin: while this Proc remains the unique
// earliest-clock runnable thread it keeps running without scanning the
// proc table (the common case on every Advance).
func (p *Proc) maybeYield() {
	if om := p.m.otherMin; om == math.MaxUint64 || p.clock <= om+p.m.cfg.Quantum {
		return
	}
	p.state = stateReady
	p.m.due[p.id] = dueKey(p.clock, p.id)
	p.park()
}

// park dispatches the next Proc and switches to it, and returns when this
// Proc is dispatched again. When dispatch picks this Proc again it returns
// at once, and after a deadlock it switches to Run's goroutine. During
// teardown it unwinds the body instead, and a body already unwinding
// unwinds again rather than parking, so no carrier is left inside a
// deferred call.
func (p *Proc) park() {
	m := p.m
	if !m.tearing {
		q := m.dispatch()
		if q == nil {
			m.err = ErrDeadlock
			handoff(&p.c.waits, m.runWaits)
		} else if q != p {
			handoff(&p.c.waits, q.c.waits)
		}
	}
	if m.tearing {
		panic(killSentinel{})
	}
}

// Block parks the Proc until another Proc calls Wake on it or the deadline
// (absolute virtual time; NoDeadline for none) passes, and reports why it
// resumed. The caller is responsible for registering itself wherever the
// waker will look (e.g. a memory line's waiter list) before calling Block.
func (p *Proc) Block(deadline uint64) WakeCause {
	p.state = stateBlocked
	p.deadline = deadline
	if deadline != NoDeadline {
		p.m.due[p.id] = dueKey(max(p.clock, deadline), p.id)
	}
	p.park()
	return p.lastWake
}

// Wake marks target runnable with the given cause. target's clock is floored
// to the caller's current clock plus latency: the event that wakes it cannot
// be observed before it happened. Waking a Proc that is not blocked is a
// no-op (it lost no information; it will observe the state change itself).
func (p *Proc) Wake(target *Proc, cause WakeCause, latency uint64) {
	if target.state != stateBlocked {
		return
	}
	target.state = stateReady
	target.deadline = NoDeadline
	target.pendingCause = cause
	p.m.due[target.id] = dueKey(target.clock, target.id)
	floor := p.clock + latency
	if floor > target.wakeFloor {
		target.wakeFloor = floor
	}
	// target is now runnable at its clock (the wake floor is applied at
	// dispatch, matching pickNext's metric); fold it into the cached
	// minimum so the waker's fast path in Advance sees it.
	if target.clock < p.m.otherMin {
		p.m.otherMin = target.clock
	}
	// No handoff here: the waker keeps running; the woken Proc is
	// dispatched in virtual-time order.
}

// Rand64 steps the Proc's deterministic xorshift64* generator.
func (p *Proc) Rand64() uint64 {
	x := p.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.rng = x
	return x * 0x2545F4914F6CDD1D
}

// RandN returns a deterministic pseudo-random value in [0, n).
func (p *Proc) RandN(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return p.Rand64() % n
}

// jitterRand steps the machine's xorshift64* jitter generator.
func (m *Machine) jitterRand() uint64 {
	x := m.jrng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.jrng = x
	return x * 0x2545F4914F6CDD1D
}

// mixSeed derives a per-proc RNG state from the machine seed (splitmix64).
func mixSeed(seed, i uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x1234567887654321
	}
	return z
}
