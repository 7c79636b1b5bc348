package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// idleCarriers is the size of the carrier free list.
func idleCarriers() int {
	carriers.Lock()
	defer carriers.Unlock()
	return len(carriers.free)
}

// ending is one way a Run can end.
type ending int

const (
	endNormal ending = iota
	endDeadlock
	endPanic
	endGoexit
)

var errBoom = errors.New("boom")

// giveBodies gives every Proc of m a body. Under endPanic and endGoexit,
// Proc 0 panics or calls runtime.Goexit while the others are parked in
// Block; under endDeadlock every body blocks for good.
func giveBodies(m *Machine, e ending) {
	for i := 0; i < m.Procs(); i++ {
		m.Go(func(p *Proc) {
			if e == endNormal {
				for k := 0; k < 30; k++ {
					p.Advance(1 + p.RandN(20))
					if k%7 == 6 {
						p.Block(p.Clock() + 15)
					}
				}
				return
			}
			if p.ID() > 0 || e == endDeadlock {
				p.Advance(uint64(10 * (p.ID() + 1)))
				p.Block(NoDeadline)
				return
			}
			p.Advance(1000)
			if e == endPanic {
				panic(errBoom)
			}
			runtime.Goexit()
		})
	}
}

// runToEnd runs m on a goroutine of its own, since a body's Goexit ends
// the goroutine that called Run, and returns the value Run re-raised and
// Run's error. It fails t if Run does not end within a minute.
func runToEnd(t *testing.T, m *Machine) (raised any, err error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { raised = recover() }()
		err = m.Run()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("Run hung")
	}
	return raised, err
}

func checkEnding(t *testing.T, m *Machine, e ending) {
	t.Helper()
	giveBodies(m, e)
	raised, err := runToEnd(t, m)
	switch e {
	case endNormal:
		if err != nil || raised != nil {
			t.Fatalf("normal run: Run returned %v and raised %v", err, raised)
		}
	case endDeadlock:
		if err != ErrDeadlock || raised != nil {
			t.Fatalf("deadlocked run: Run returned %v and raised %v, want ErrDeadlock", err, raised)
		}
	case endPanic:
		if raised != errBoom {
			t.Fatalf("panicking run: Run raised %v, want %v", raised, errBoom)
		}
	}
}

// TestPanicAtFirstStepStartsNoOtherBody: when the first body dispatched
// panics before any step, teardown must not start another body, and Run
// must re-raise the very value the body panicked with.
func TestPanicAtFirstStepStartsNoOtherBody(t *testing.T) {
	m := MustNew(Config{Procs: 8, Seed: 1})
	var ran [8]bool
	m.Go(func(p *Proc) { panic(errBoom) })
	for i := 1; i < 8; i++ {
		m.Go(func(p *Proc) { ran[p.ID()] = true })
	}
	if raised, _ := runToEnd(t, m); raised != errBoom {
		t.Fatalf("Run raised %v, want %v", raised, errBoom)
	}
	for id, r := range ran {
		if r {
			t.Fatalf("proc %d's body ran after proc 0 panicked", id)
		}
	}
}

// TestMachinesRunAfterAbnormalEnds: after a Run ends by a body panic, a
// deadlock or a body's Goexit, a fresh machine and the Reset machine each
// run every body to completion. A carrier left unusable by the abnormal
// end and handed out again would skip its next body.
func TestMachinesRunAfterAbnormalEnds(t *testing.T) {
	cfg := Config{Procs: 8, Seed: 5}
	for _, e := range []ending{endPanic, endDeadlock, endGoexit} {
		m := MustNew(cfg)
		checkEnding(t, m, e)
		if err := m.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Machine{MustNew(cfg), m} {
			var finished [8]bool
			for i := 0; i < 8; i++ {
				m.Go(func(p *Proc) {
					for k := 0; k < 50; k++ {
						p.Advance(1 + p.RandN(30))
						if k%9 == 8 {
							p.Block(p.Clock() + 40)
						}
					}
					finished[p.ID()] = true
				})
			}
			if err := m.Run(); err != nil {
				t.Fatalf("ending %d: next Run: %v", e, err)
			}
			for id, f := range finished {
				if !f {
					t.Fatalf("ending %d: proc %d's body did not run to completion on the next Run", e, id)
				}
			}
		}
	}
}

// TestDeferredParkDuringTeardownUnwinds: a body unwound by teardown whose
// deferred call parks again must unwind at once rather than suspend, or
// its carrier would go back to the free list in the middle of that call
// and the next body handed to it would never run.
func TestDeferredParkDuringTeardownUnwinds(t *testing.T) {
	cfg := Config{Procs: 4, Seed: 2}
	m := MustNew(cfg)
	for i := 0; i < 4; i++ {
		m.Go(func(p *Proc) {
			defer p.Block(NoDeadline)
			p.Advance(uint64(5 * (p.ID() + 1)))
			p.Block(NoDeadline)
		})
	}
	if raised, err := runToEnd(t, m); err != ErrDeadlock || raised != nil {
		t.Fatalf("Run returned %v and raised %v, want ErrDeadlock", err, raised)
	}
	if err := m.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	var finished [4]bool
	for i := 0; i < 4; i++ {
		m.Go(func(p *Proc) {
			p.Advance(uint64(3 * (p.ID() + 1)))
			p.Block(p.Clock() + 10)
			finished[p.ID()] = true
		})
	}
	if raised, err := runToEnd(t, m); err != nil || raised != nil {
		t.Fatalf("next Run returned %v and raised %v", err, raised)
	}
	for id, f := range finished {
		if !f {
			t.Fatalf("proc %d's body did not run to completion on the next Run", id)
		}
	}
}

// TestPanicWhileUnwindingIsRaised: a panic raised by a deferred call while
// teardown unwinds a body after a deadlock is re-raised by Run, not lost.
func TestPanicWhileUnwindingIsRaised(t *testing.T) {
	m := MustNew(Config{Procs: 2, Seed: 2})
	m.Go(func(p *Proc) {
		defer func() {
			if recover() != nil {
				panic(errBoom)
			}
		}()
		p.Block(NoDeadline)
	})
	m.Go(func(p *Proc) { p.Block(NoDeadline) })
	if raised, _ := runToEnd(t, m); raised != errBoom {
		t.Fatalf("Run raised %v, want %v", raised, errBoom)
	}
}

// TestOneShotMachinesLeakNoGoroutines: machines that are run once and
// dropped, whether their Run ends normally, by deadlock, by a body panic
// or by a body's Goexit, leave no goroutine behind other than idle
// carriers, and no idle carrier keeps a Proc (and through it the Machine)
// or a panic value alive.
func TestOneShotMachinesLeakNoGoroutines(t *testing.T) {
	startG, startIdle := runtime.NumGoroutine(), idleCarriers()
	for i := 0; i < 200; i++ {
		checkEnding(t, MustNew(Config{Procs: 8, Seed: uint64(i)}), ending(i%4))
	}
	carriers.Lock()
	for _, c := range carriers.free {
		if c.p != nil || c.panicked != nil {
			t.Errorf("idle carrier holds proc %v and panic value %v", c.p, c.panicked)
		}
	}
	carriers.Unlock()
	// A goroutine that has finished its work may take a moment to exit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		extra, idle := runtime.NumGoroutine()-startG, idleCarriers()-startIdle
		if extra <= idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines more than at the start, but only %d more idle carriers", extra, idle)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWarmRunAllocatesNothing: once the carriers exist, resetting an
// 8-proc machine, assigning its bodies and running it allocates nothing.
func TestWarmRunAllocatesNothing(t *testing.T) {
	cfg := Config{Procs: 8, Seed: 3}
	m := MustNew(cfg)
	var bodies [8]func(*Proc)
	for i := range bodies {
		bodies[i] = func(p *Proc) {
			for k := 0; k < 20; k++ {
				p.Advance(1 + p.RandN(9))
				if k%5 == 4 {
					p.Block(p.Clock() + 7)
				}
			}
		}
	}
	run := func() {
		if err := m.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		for _, b := range bodies {
			m.Go(b)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm Reset+Go+Run allocated %v times, want 0", n)
	}
}

// TestGoexitInBodyEndsRun: a body that calls runtime.Goexit, as t.FailNow
// does, ends Run instead of hanging it.
func TestGoexitInBodyEndsRun(t *testing.T) {
	m := MustNew(Config{Procs: 2, Seed: 1})
	m.Go(func(p *Proc) {
		p.Advance(5)
		runtime.Goexit()
	})
	m.Go(func(p *Proc) {
		for k := 0; k < 100; k++ {
			p.Advance(3)
			p.Block(p.Clock() + 4)
		}
	})
	runToEnd(t, m)
}
