package sim

import (
	"math"
	"testing"
)

// The scheduler's reference: Proc bodies written as data (scripts), run on
// the real Machine and on a naive interpreter that uses no goroutines, scans
// every Proc on every Advance and keeps no otherMin cache. The two must
// agree on every logged step, on the final clocks and on Run's error.

type opKind uint8

const (
	opAdvance opKind = iota
	opBlock
	opWake
	opRand
)

// noDeadlineOffset marks a scripted Block with no deadline.
const noDeadlineOffset = math.MaxUint64

// scriptOp is one step of a scripted body. n is Advance's cycles, Block's
// deadline offset from the Proc's clock, Wake's latency or RandN's bound.
type scriptOp struct {
	kind   opKind
	n      uint64
	target int
	cause  WakeCause
}

// logEntry is what a script records after each step.
type logEntry struct {
	proc  int
	clock uint64
	cause WakeCause // Block's result; 0 for the other ops
	val   uint64    // RandN's draw
}

// genScripts draws one script per body from seed. Some machines leave the
// last Proc without a body, so Wakes and sibling checks also meet a Proc
// that never runs.
func genScripts(seed uint64, procs int) [][]scriptOp {
	g := mixSeed(seed, 1000)
	next := func(n uint64) uint64 { return xorshift(&g) % n }
	scripts := make([][]scriptOp, procs-int(next(4)/3))
	for i := range scripts {
		steps := 20 + next(60)
		for k := uint64(0); k < steps; k++ {
			var op scriptOp
			switch x := next(100); {
			case x < 55:
				op = scriptOp{kind: opAdvance, n: 1 + next(40)}
			case x < 72:
				op = scriptOp{kind: opBlock, n: next(120)}
				if next(8) == 0 {
					op.n = noDeadlineOffset
				}
			case x < 90:
				op = scriptOp{kind: opWake, n: next(30), target: int(next(uint64(procs))), cause: WakeStore}
				if next(3) == 0 {
					op.cause = WakeDoom
				}
			default:
				op = scriptOp{kind: opRand, n: 1 + next(100)}
			}
			scripts[i] = append(scripts[i], op)
		}
	}
	return scripts
}

func scriptDeadline(clock, off uint64) uint64 {
	if off == noDeadlineOffset {
		return NoDeadline
	}
	return clock + off
}

// runScripts runs scripts as bodies on m and returns the step log, every
// Proc's final clock and Run's error.
func runScripts(m *Machine, scripts [][]scriptOp) ([]logEntry, []uint64, error) {
	var log []logEntry
	for _, s := range scripts {
		m.Go(func(p *Proc) {
			for _, op := range s {
				e := logEntry{proc: p.ID()}
				switch op.kind {
				case opAdvance:
					p.Advance(op.n)
				case opBlock:
					e.cause = p.Block(scriptDeadline(p.Clock(), op.n))
				case opWake:
					p.Wake(m.Proc(op.target), op.cause, op.n)
				case opRand:
					e.val = p.RandN(op.n)
				}
				e.clock = p.Clock()
				log = append(log, e)
			}
		})
	}
	err := m.Run()
	clocks := make([]uint64, m.Procs())
	for i := range clocks {
		clocks[i] = m.Proc(i).Clock()
	}
	return log, clocks, err
}

type refProc struct {
	id        int
	script    []scriptOp
	pc        int  // next step to start
	parked    bool // step pc began and waits for the Proc's next dispatch
	state     procState
	clock     uint64
	deadline  uint64
	wakeFloor uint64
	pending   WakeCause
	rng       uint64
}

type refMachine struct {
	cfg   Config
	procs []*refProc
	jrng  uint64
	log   []logEntry
}

func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*s = x
	return x * 0x2545F4914F6CDD1D
}

// effective is the time at which q could next run, as pickNext measures
// it: a ready Proc at its clock (not its wake floor), a blocked one at its
// deadline, never before its clock.
func (q *refProc) effective() (uint64, bool) {
	switch {
	case q.state == stateReady:
		return q.clock, true
	case q.state == stateBlocked && q.deadline != NoDeadline:
		return max(q.clock, q.deadline), true
	}
	return 0, false
}

// dispatch copies pickNext's choice and quirks: ties go to the lower id,
// every ready Proc the scan passes loses its pending cause (only the winner
// reports it), a deadline wake is WakeTimeout and moves the clock to the
// deadline, and the wake floor and jitter apply only here.
func (r *refMachine) dispatch() (*refProc, WakeCause) {
	var best *refProc
	bestT := uint64(math.MaxUint64)
	var cause WakeCause
	for _, q := range r.procs {
		t, ok := q.effective()
		if !ok {
			continue
		}
		c := WakeTimeout
		if q.state == stateReady {
			c = WakeStore
			if q.pending != 0 {
				c = q.pending
			}
			q.pending = 0
		}
		if t < bestT {
			best, bestT, cause = q, t, c
		}
	}
	if best == nil {
		return nil, 0
	}
	if cause == WakeTimeout {
		best.clock = max(best.clock, best.deadline)
		best.deadline = NoDeadline
	}
	best.clock = max(best.clock, best.wakeFloor)
	best.wakeFloor = 0
	if j := r.cfg.JitterCycles; j > 0 {
		best.clock += xorshift(&r.jrng) % j
	}
	best.state = stateRunning
	return best, cause
}

// mustYield scans every other Proc for the earliest runnable time.
func (r *refMachine) mustYield(p *refProc) bool {
	other := uint64(math.MaxUint64)
	for _, q := range r.procs {
		if t, ok := q.effective(); ok && q != p {
			other = min(other, t)
		}
	}
	return other != math.MaxUint64 && p.clock > other+r.cfg.Quantum
}

func (r *refMachine) siblingActive(p *refProc) bool {
	cores := r.cfg.Cores
	if cores <= 0 || cores >= r.cfg.Procs {
		return false
	}
	for i, q := range r.procs {
		if q != p && i%cores == p.id%cores &&
			(q.state == stateReady || q.state == stateRunning) {
			return true
		}
	}
	return false
}

func (r *refMachine) record(p *refProc, cause WakeCause, val uint64) {
	r.log = append(r.log, logEntry{proc: p.id, clock: p.clock, cause: cause, val: val})
}

// step runs p from its dispatch until it parks again or its script ends,
// and reports whether the script ended.
func (r *refMachine) step(p *refProc, cause WakeCause) bool {
	if p.parked {
		if p.script[p.pc].kind == opAdvance {
			cause = 0
		}
		r.record(p, cause, 0)
		p.parked = false
		p.pc++
	}
	for ; p.pc < len(p.script); p.pc++ {
		op := p.script[p.pc]
		switch op.kind {
		case opAdvance:
			n := op.n
			if r.siblingActive(p) {
				slow := uint64(r.cfg.HTSlowdownPercent)
				if slow == 0 {
					slow = 60
				}
				n += n * slow / 100
			}
			p.clock += n
			if r.mustYield(p) {
				p.state, p.parked = stateReady, true
				return false
			}
			r.record(p, 0, 0)
		case opBlock:
			p.state, p.parked = stateBlocked, true
			p.deadline = scriptDeadline(p.clock, op.n)
			return false
		case opWake:
			if t := r.procs[op.target]; t.state == stateBlocked {
				t.state, t.deadline, t.pending = stateReady, NoDeadline, op.cause
				t.wakeFloor = max(t.wakeFloor, p.clock+op.n)
			}
			r.record(p, 0, 0)
		case opRand:
			r.record(p, 0, xorshift(&p.rng)%op.n)
		}
	}
	p.state = stateDone
	return true
}

// runReference interprets scripts under cfg with no goroutines.
func runReference(cfg Config, scripts [][]scriptOp) ([]logEntry, []uint64, error) {
	r := &refMachine{cfg: cfg, jrng: mixSeed(cfg.Seed, uint64(MaxProcs)+1)}
	live := 0
	for i := 0; i < cfg.Procs; i++ {
		q := &refProc{id: i, state: stateDone, deadline: NoDeadline, rng: mixSeed(cfg.Seed, uint64(i))}
		if i < len(scripts) {
			q.script, q.state = scripts[i], stateReady
			live++
		}
		r.procs = append(r.procs, q)
	}
	var err error
	for live > 0 {
		p, cause := r.dispatch()
		if p == nil {
			err = ErrDeadlock
			break
		}
		if r.step(p, cause) {
			live--
		}
	}
	clocks := make([]uint64, cfg.Procs)
	for i, q := range r.procs {
		clocks[i] = q.clock
	}
	return r.log, clocks, err
}

func compareRuns(t *testing.T, what string, cfg Config, gotLog, wantLog []logEntry, gotClocks, wantClocks []uint64, gotErr, wantErr error) {
	t.Helper()
	if gotErr != wantErr {
		t.Fatalf("%s %+v: Run returned %v, reference %v", what, cfg, gotErr, wantErr)
	}
	for i := 0; i < len(gotLog) && i < len(wantLog); i++ {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("%s %+v: step %d is %+v, reference %+v", what, cfg, i, gotLog[i], wantLog[i])
		}
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("%s %+v: %d steps logged, reference %d", what, cfg, len(gotLog), len(wantLog))
	}
	for i := range wantClocks {
		if gotClocks[i] != wantClocks[i] {
			t.Fatalf("%s %+v: proc %d ended at clock %d, reference %d", what, cfg, i, gotClocks[i], wantClocks[i])
		}
	}
}

// TestSchedulerMatchesReference runs seeded scripts of Advance, Block, Wake
// and RandN steps on fresh and on Reset machines and on the reference, over
// quantum {0, 16, 128}, jitter {0, 7} and SMT {off, Cores 2 of 4}, and
// compares the full (proc, clock, wake cause) log.
func TestSchedulerMatchesReference(t *testing.T) {
	const procs, seeds = 4, 40
	var reused *Machine
	var deadlocks, completions int
	causes := map[WakeCause]int{}
	for _, quantum := range []uint64{0, 16, 128} {
		for _, jitter := range []uint64{0, 7} {
			for _, cores := range []int{0, 2} {
				for seed := uint64(1); seed <= seeds; seed++ {
					cfg := Config{Procs: procs, Seed: seed, Quantum: quantum, JitterCycles: jitter, Cores: cores}
					scripts := genScripts(seed, procs)
					wantLog, wantClocks, wantErr := runReference(cfg, scripts)
					gotLog, gotClocks, gotErr := runScripts(MustNew(cfg), scripts)
					compareRuns(t, "fresh", cfg, gotLog, wantLog, gotClocks, wantClocks, gotErr, wantErr)
					if reused == nil {
						reused = MustNew(cfg)
					} else if err := reused.Reset(cfg); err != nil {
						t.Fatal(err)
					}
					gotLog, gotClocks, gotErr = runScripts(reused, scripts)
					compareRuns(t, "reset", cfg, gotLog, wantLog, gotClocks, wantClocks, gotErr, wantErr)
					if wantErr != nil {
						deadlocks++
					} else {
						completions++
					}
					for _, e := range wantLog {
						causes[e.cause]++
					}
				}
			}
		}
	}
	// The scripts must reach every ending and every wake cause, or the
	// comparison above checks less than it claims.
	if deadlocks == 0 || completions == 0 {
		t.Fatalf("%d deadlocked and %d completed runs; want some of each", deadlocks, completions)
	}
	for _, c := range []WakeCause{WakeStore, WakeTimeout, WakeDoom} {
		if causes[c] == 0 {
			t.Fatalf("no Block returned wake cause %d", c)
		}
	}
}
