package htm

import (
	"reflect"
	"strings"
	"testing"

	"elision/internal/obs"
	"elision/internal/sim"
	"elision/internal/trace"
)

// TestNTRMWPrimitives covers CASNT/SwapNT/FetchAddNT semantics directly.
func TestNTRMWPrimitives(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	a := hm.Store().AllocLines(1)
	m.Go(func(p *sim.Proc) {
		if prev, ok := hm.CASNT(p, a, 0, 5); !ok || prev != 0 {
			t.Errorf("CAS(0->5) = %d,%v", prev, ok)
		}
		if prev, ok := hm.CASNT(p, a, 0, 9); ok || prev != 5 {
			t.Errorf("failing CAS = %d,%v", prev, ok)
		}
		if prev := hm.SwapNT(p, a, 7); prev != 5 {
			t.Errorf("Swap = %d, want 5", prev)
		}
		if prev := hm.FetchAddNT(p, a, 3); prev != 7 {
			t.Errorf("FetchAdd = %d, want 7", prev)
		}
		if got := hm.LoadNT(p, a); got != 10 {
			t.Errorf("final = %d, want 10", got)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTxRMWPrimitives covers the transactional CAS/Swap/FetchAdd/ElideStore.
func TestTxRMWPrimitives(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	a := hm.Store().AllocLines(1)
	lock := hm.Store().AllocLines(1)
	m.Go(func(p *sim.Proc) {
		st := hm.Atomic(p, func(tx *Tx) {
			if prev, ok := tx.CAS(a, 0, 4); !ok || prev != 0 {
				t.Errorf("tx CAS = %d,%v", prev, ok)
			}
			if prev, ok := tx.CAS(a, 0, 9); ok || prev != 4 {
				t.Errorf("tx failing CAS = %d,%v", prev, ok)
			}
			if prev := tx.Swap(a, 6); prev != 4 {
				t.Errorf("tx Swap = %d", prev)
			}
			if prev := tx.FetchAdd(a, 4); prev != 6 {
				t.Errorf("tx FetchAdd = %d", prev)
			}
			tx.ElideStore(lock, 1)
			if got := tx.Load(lock); got != 1 {
				t.Errorf("elided illusion = %d", got)
			}
			tx.ReleaseStore(lock, 0)
		})
		if !st.Committed {
			t.Errorf("status %+v", st)
		}
		if got := hm.LoadNT(p, a); got != 10 {
			t.Errorf("final = %d, want 10", got)
		}
		if got := hm.LoadNT(p, lock); got != 0 {
			t.Errorf("lock disturbed: %d", got)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInTxAndTxAccessors(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	m.Go(func(p *sim.Proc) {
		if hm.InTx(p) || hm.Tx(p) != nil {
			t.Error("InTx true outside a transaction")
		}
		hm.Atomic(p, func(tx *Tx) {
			if !hm.InTx(p) || hm.Tx(p) != tx {
				t.Error("InTx/Tx wrong inside a transaction")
			}
		})
		if hm.InTx(p) {
			t.Error("InTx true after commit")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCtxWorkChargesCycles(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	m.Go(func(p *sim.Proc) {
		c := Ctx{P: p, M: hm}
		before := p.Clock()
		c.Work(123)
		if got := p.Clock() - before; got != 123 {
			t.Errorf("Work(123) charged %d", got)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitNTAndWaitCond(t *testing.T) {
	m, hm := newTestMachine(t, 2)
	a := hm.Store().AllocLines(1)
	var sawVal int64
	m.Go(func(p *sim.Proc) {
		hm.WaitNT(p, a, 0) // until != 0
		hm.WaitCond(p, a, func(v int64) bool { return v >= 2 })
		sawVal = hm.LoadNT(p, a)
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(500)
		hm.StoreNT(p, a, 1)
		p.Advance(500)
		hm.StoreNT(p, a, 2)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if sawVal < 2 {
		t.Fatalf("WaitCond returned early: %d", sawVal)
	}
}

func TestCauseStrings(t *testing.T) {
	for c, want := range map[Cause]string{
		CauseNone: "none", CauseConflict: "conflict", CauseCapacity: "capacity",
		CauseExplicit: "explicit", CauseSpurious: "spurious",
		CauseInterrupt: "interrupt", CauseHLEMismatch: "hle-mismatch",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int8(c), c.String(), want)
		}
	}
	if s := Cause(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown cause string: %q", s)
	}
}

func TestCostAccessor(t *testing.T) {
	_, hm := newTestMachine(t, 1)
	if hm.Cost().MemHit != testCost().MemHit {
		t.Fatal("Cost() does not round-trip the configured model")
	}
}

func TestTracerAccessorsAndEvents(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	tr := trace.New(0)
	hm.SetTracer(tr)
	m.Go(func(p *sim.Proc) {
		hm.Atomic(p, func(tx *Tx) { tx.Store(hm.Store().AllocLines(1), 1) })
		hm.Atomic(p, func(tx *Tx) { tx.Abort(1) })
		hm.TraceLock(p)
		hm.TraceUnlock(p)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	c := tr.Counts()
	if c[obs.KindTxBegin] != 2 || c[obs.KindTxCommit] != 1 || c[obs.KindTxAbort] != 1 ||
		c[obs.KindLockAcquire] != 1 || c[obs.KindLockRelease] != 1 {
		t.Fatalf("trace counts = %v", c)
	}
}

// eventLog is a sink keeping a copy of every event.
type eventLog []obs.Event

func (l *eventLog) Observe(ev *obs.Event) { *l = append(*l, *ev) }

// TestEventsZeroOutsidePayload checks the obs.Event contract on htm's
// emissions, which fill one reused event in place: every field outside the
// kind's payload is zero, whatever the previous emission set.
func TestEventsZeroOutsidePayload(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 3})
	hm := NewMemory(m, Config{Words: 1 << 12, Cost: testCost()})
	var log eventLog
	col := obs.NewCollector("", "", 0)
	col.Attach(&log)
	hm.SetCollector(col)
	a := hm.Store().AllocLines(1)
	for i := 0; i < 2; i++ {
		m.Go(func(p *sim.Proc) {
			for k := 0; k < 20; k++ {
				hm.Atomic(p, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
				hm.Atomic(p, func(tx *Tx) { tx.Abort(7) })
				hm.TraceLockWait(p)
				hm.TraceLock(p)
				hm.StoreNT(p, a, int64(k))
				hm.TraceUnlock(p)
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var conflicts, explicit int
	for i, ev := range log {
		want := obs.Event{Kind: ev.Kind, When: ev.When, Tid: ev.Tid}
		switch ev.Kind {
		case obs.KindTxCommit:
			want.ReadLines, want.WriteLines = ev.ReadLines, ev.WriteLines
		case obs.KindTxAbort:
			want.ReadLines, want.WriteLines = ev.ReadLines, ev.WriteLines
			want.Cause, want.Arg, want.Code = ev.Cause, ev.Arg, ev.Code
			want.ConflictLine, want.ConflictTid, want.ConflictNT = ev.ConflictLine, ev.ConflictTid, ev.ConflictNT
			want.ConflictWhen = ev.ConflictWhen
			if ev.ConflictTid >= 0 {
				conflicts++
			}
			if ev.Code != 0 {
				explicit++
			}
		}
		if !reflect.DeepEqual(ev, want) {
			t.Fatalf("event %d %+v has fields outside its %v payload set", i, ev, ev.Kind)
		}
	}
	if conflicts == 0 || explicit == 0 {
		t.Fatalf("%d conflict and %d explicit aborts; the check needs both payloads", conflicts, explicit)
	}
}

func TestNTAccessInsideTxPanics(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	a := hm.Store().AllocLines(1)
	m.Go(func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("NT access inside a transaction did not panic")
			}
			// Unwind the proc cleanly: the machine kills remaining procs on
			// body panics, but here we recovered, so just fall through.
		}()
		hm.Atomic(p, func(tx *Tx) {
			hm.LoadNT(p, a) // invalid: panics
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
