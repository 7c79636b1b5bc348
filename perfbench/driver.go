package main

import (
	"fmt"
	"math/rand"
	"time"

	"elision/internal/core"
	"elision/internal/harness"
	"elision/internal/hashtable"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
	"elision/internal/rbtree"
	"elision/internal/sim"
	"elision/internal/trace"
)

// The traced driver re-executes a benchmark point from the layers' public
// calls, the way harness.Instance builds it, so the benchmark's own code
// can put spans around the calls into each layer. It must reproduce the
// harness's fingerprint for every point it runs; otherwise its per-layer
// numbers describe different work and are void.

// layer is one row of the host-time ledger.
type layer int

const (
	laySim    layer = iota // sim.run self: the driver's loop outside every span
	laySwitch              // sim.switch: intervals across a change of running proc
	layCore                // core: Scheme.Critical, the scheme loop plus lock protocol
	layTree                // rbtree: the operation body passed to Critical
	layHash                // hashtable: the operation body passed to Critical
	layTx                  // htm.tx: accessor loads and stores inside a transaction
	layNT                  // htm.nt: accessor loads and stores outside one
	layAbort               // htm.abort: the unwind of an aborted attempt
	numLayers
)

var layerNames = [numLayers]string{"sim.run", "sim.switch", "core", "rbtree", "hashtable", "htm.tx", "htm.nt", "htm.abort"}

// ledger charges the host time between consecutive span boundaries to the
// innermost open span of the proc that reached the second boundary. When
// the running proc changed in between, the interval goes to sim.switch;
// after a span closes by unwinding, the proc's time up to its next
// boundary goes to htm.abort. Every interval is charged exactly once, so
// the self times sum to the sim.run span.
//
// Only one simulated proc runs at a time (the scheduler's single-runner
// invariant), so the ledger needs no locking.
type ledger struct {
	epoch     time.Time
	last      int64
	lastPid   int
	stacks    [][]layer
	unwinding []bool
	self      [numLayers]int64
	count     [numLayers]uint64 // spans opened; switches and unwinds for their rows
}

// newLedger returns a ledger for procs simulated threads; pid procs is the
// host goroutine that starts and ends the run.
func newLedger(procs int) *ledger {
	return &ledger{stacks: make([][]layer, procs+1), unwinding: make([]bool, procs+1)}
}

// start opens the sim.run span on the host goroutine.
func (l *ledger) start() {
	l.epoch = time.Now()
	l.last = 0
	l.lastPid = len(l.stacks) - 1
}

// tick charges the interval since the previous boundary.
func (l *ledger) tick(pid int) {
	now := int64(time.Since(l.epoch))
	dt := now - l.last
	l.last = now
	switch {
	case pid != l.lastPid:
		l.self[laySwitch] += dt
		l.count[laySwitch]++
		l.lastPid = pid
	case l.unwinding[pid]:
		l.self[layAbort] += dt
	default:
		if st := l.stacks[pid]; len(st) > 0 {
			l.self[st[len(st)-1]] += dt
		} else {
			l.self[laySim] += dt
		}
	}
}

func (l *ledger) open(pid int, lay layer) {
	l.tick(pid)
	l.unwinding[pid] = false
	l.stacks[pid] = append(l.stacks[pid], lay)
	l.count[lay]++
}

func (l *ledger) close(pid int) {
	l.tick(pid)
	l.unwinding[pid] = false
	l.stacks[pid] = l.stacks[pid][:len(l.stacks[pid])-1]
}

// closeUnwound closes the span lay, which a panic is unwinding, together
// with every access span the panic skipped above it. The interval ending
// here is the aborting access plus the unwind so far: htm.abort.
func (l *ledger) closeUnwound(pid int, lay layer) {
	l.unwinding[pid] = true
	l.tick(pid)
	st := l.stacks[pid]
	for len(st) > 0 {
		top := st[len(st)-1]
		st = st[:len(st)-1]
		if top == lay {
			break
		}
	}
	l.stacks[pid] = st
	l.count[layAbort]++
}

// tracedAcc is the htm.Accessor the traced driver hands the data
// structures: every Load and Store is a span, transactional or not by
// Memory.InTx at the time of the call.
type tracedAcc struct {
	c htm.Ctx
	l *ledger
}

func (a *tracedAcc) layer() layer {
	if a.c.M.InTx(a.c.P) {
		return layTx
	}
	return layNT
}

func (a *tracedAcc) Load(addr mem.Addr) int64 {
	pid := a.c.P.ID()
	a.l.open(pid, a.layer())
	v := a.c.Load(addr)
	a.l.close(pid)
	return v
}

func (a *tracedAcc) Store(addr mem.Addr, v int64) {
	pid := a.c.P.ID()
	a.l.open(pid, a.layer())
	a.c.Store(addr, v)
	a.l.close(pid)
}

func (a *tracedAcc) Pid() int { return a.c.P.ID() }

// structure is the operation set both benchmark containers share.
type structure interface {
	Insert(ac htm.Accessor, key, val int64) bool
	Delete(ac htm.Accessor, key int64) bool
	Lookup(ac htm.Accessor, key int64) (int64, bool)
}

// memoryWords and bucketCount repeat the harness's geometry for a point;
// the memory layout must match for the driver to reproduce the harness.
func memoryWords(cfg harness.DSConfig) int {
	words := (2*cfg.Size + cfg.Threads*64*8 + 4096) * 8
	if cfg.Structure == harness.StructHash {
		words += bucketCount(cfg.Size) * 8
	}
	return words + 1<<16
}

func bucketCount(size int) int {
	b := 64
	for b < size {
		b <<= 1
	}
	return b
}

// pointRun is one driver execution.
type pointRun struct {
	res    harness.Result
	runNs  int64 // host time of Machine.Run
	events int   // tracer events, with the observer rig attached
	led    *ledger
}

// drive runs cfg through the driver. traced records spans in a ledger;
// rig attaches FlightRun's observers (collector, causality engine, flight
// recorder and tracer) as diagnose-panel's points run with them.
func drive(cfg harness.DSConfig, traced, rig bool) (pointRun, error) {
	if cfg.ACfg != "" || cfg.HWFix || cfg.SlotCycles != 0 {
		return pointRun{}, fmt.Errorf("driver: point %+v uses options the driver does not model", cfg)
	}
	m, err := sim.New(sim.Config{Procs: cfg.Threads, Seed: cfg.Seed, Quantum: cfg.Quantum, Cores: cfg.Cores})
	if err != nil {
		return pointRun{}, err
	}
	hm := htm.NewMemory(m, htm.Config{Words: memoryWords(cfg)})
	var col *obs.Collector
	var tr *trace.Tracer
	if rig {
		col = obs.NewCollector(string(cfg.Scheme), string(cfg.Lock), cfg.BudgetCycles/20)
		causality.Attach(col, causality.Config{})
		flight.Attach(col, flight.Config{MaxChains: -1})
		tr = trace.New(0)
		hm.SetCollector(col)
		hm.SetTracer(tr)
	}

	var ds structure
	var tree *rbtree.Tree
	opLayer := layTree
	if cfg.Structure == harness.StructHash {
		ds = hashtable.New(hm, cfg.Threads, bucketCount(cfg.Size))
		opLayer = layHash
	} else {
		tree = rbtree.New(hm, cfg.Threads)
		ds = tree
	}
	domain := uint64(2 * cfg.Size)
	if domain == 0 {
		domain = 2
	}
	raw := htm.Raw{M: hm}
	rng := rand.New(rand.NewSource(int64(cfg.Seed) + 1))
	for n := 0; n < cfg.Size; {
		if ds.Insert(raw, rng.Int63n(int64(domain)), 1) {
			n++
		}
	}

	l, err := core.BuildLock(hm, string(cfg.Lock), cfg.Threads)
	if err != nil {
		return pointRun{}, err
	}
	inner, err := core.BuildScheme(hm, string(cfg.Scheme), l, cfg.Threads)
	if err != nil {
		return pointRun{}, err
	}
	s := core.Observe(inner, col)
	var lockLines []int
	if lr, ok := l.(locks.LineReporter); ok {
		lockLines = lr.LockLines()
	}
	col.SetLockLines(lockLines)
	hm.SetSubscriptionLines(lockLines)

	var stats core.Stats
	var led *ledger
	if traced {
		led = newLedger(cfg.Threads)
	}
	for i := 0; i < cfg.Threads; i++ {
		m.Go(func(p *sim.Proc) {
			if led == nil {
				// The harness's own loop, unchanged.
				for p.Clock() < cfg.BudgetCycles {
					r := p.RandN(100)
					key := int64(p.RandN(domain))
					var o core.Outcome
					switch {
					case int(r) < cfg.Mix.InsertPct:
						o = s.Critical(p, func(c htm.Ctx) { ds.Insert(c, key, 1) })
					case int(r) < cfg.Mix.InsertPct+cfg.Mix.DeletePct:
						o = s.Critical(p, func(c htm.Ctx) { ds.Delete(c, key) })
					default:
						o = s.Critical(p, func(c htm.Ctx) { ds.Lookup(c, key) })
					}
					stats.Add(o)
				}
				return
			}
			pid := p.ID()
			acc := &tracedAcc{l: led}
			// op runs one attempt of the operation body as a span; a deferred
			// close sees whether an abort unwound it.
			op := func(c htm.Ctx, f func(ac htm.Accessor)) {
				led.open(pid, opLayer)
				done := false
				defer func() {
					if done {
						led.close(pid)
					} else {
						led.closeUnwound(pid, opLayer)
					}
				}()
				acc.c = c
				f(acc)
				done = true
			}
			for p.Clock() < cfg.BudgetCycles {
				r := p.RandN(100)
				key := int64(p.RandN(domain))
				var body func(c htm.Ctx)
				switch {
				case int(r) < cfg.Mix.InsertPct:
					body = func(c htm.Ctx) { op(c, func(ac htm.Accessor) { ds.Insert(ac, key, 1) }) }
				case int(r) < cfg.Mix.InsertPct+cfg.Mix.DeletePct:
					body = func(c htm.Ctx) { op(c, func(ac htm.Accessor) { ds.Delete(ac, key) }) }
				default:
					body = func(c htm.Ctx) { op(c, func(ac htm.Accessor) { ds.Lookup(ac, key) }) }
				}
				led.open(pid, layCore)
				o := s.Critical(p, body)
				led.close(pid)
				stats.Add(o)
			}
		})
	}
	if led != nil {
		led.start()
	}
	t0 := time.Now()
	err = m.Run()
	runNs := time.Since(t0).Nanoseconds()
	if led != nil {
		led.tick(cfg.Threads)
	}
	if err != nil {
		return pointRun{}, fmt.Errorf("driver: %v (config %+v)", err, cfg)
	}
	var maxClock uint64
	for i := 0; i < cfg.Threads; i++ {
		maxClock = max(maxClock, m.Proc(i).Clock())
	}
	col.SetGauge("run_cycles", int64(maxClock))
	col.SetGauge("run_threads", int64(cfg.Threads))
	col.Finish(maxClock)
	if tree != nil {
		if err := tree.CheckInvariants(raw); err != nil {
			return pointRun{}, fmt.Errorf("driver: red-black invariants broken after %+v: %v", cfg, err)
		}
	}
	return pointRun{
		res:    harness.Result{Config: cfg, Stats: stats, Cycles: maxClock, LockLines: lockLines},
		runNs:  runNs,
		events: tr.Len(),
		led:    led,
	}, nil
}
