package htm

import (
	"math"
	"math/rand"
	"testing"

	"elision/internal/mem"
	"elision/internal/sim"
)

// testCost is a deterministic cost model with no spurious aborts, so tests
// can position procs in virtual time precisely.
func testCost() sim.CostModel {
	return sim.CostModel{
		MemHit:        10,
		MemMiss:       10,
		TxBegin:       10,
		TxCommit:      10,
		TxAbort:       10,
		SpinIter:      5,
		WakeLatency:   5,
		TxTimer:       1_000_000,
		SpuriousDenom: 0,
	}
}

func newTestMachine(t *testing.T, procs int) (*sim.Machine, *Memory) {
	t.Helper()
	m := sim.MustNew(sim.Config{Procs: procs, Seed: 7})
	hm := NewMemory(m, Config{Words: 1 << 16, Cost: testCost()})
	return m, hm
}

func TestCommitPublishesWrites(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	a := hm.Store().Alloc(2)
	var got int64
	m.Go(func(p *sim.Proc) {
		st := hm.Atomic(p, func(tx *Tx) {
			tx.Store(a, 11)
			tx.Store(a+1, 22)
		})
		if !st.Committed {
			t.Errorf("solo transaction aborted: %+v", st)
		}
		got = hm.LoadNT(p, a) + hm.LoadNT(p, a+1)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 33 {
		t.Fatalf("after commit sum = %d, want 33", got)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	a := hm.Store().Alloc(1)
	m.Go(func(p *sim.Proc) {
		st := hm.Atomic(p, func(tx *Tx) {
			tx.Store(a, 99)
			tx.Abort(5)
		})
		if st.Committed || st.Cause != CauseExplicit || st.Code != 5 {
			t.Errorf("status = %+v, want explicit abort code 5", st)
		}
		if v := hm.LoadNT(p, a); v != 0 {
			t.Errorf("aborted write visible: %d", v)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBufferInvisibleToOthers(t *testing.T) {
	m, hm := newTestMachine(t, 2)
	a := hm.Store().Alloc(1)
	var observed int64 = -1
	m.Go(func(p *sim.Proc) {
		hm.Atomic(p, func(tx *Tx) {
			tx.Store(a, 42)
			tx.Proc().Advance(1000) // hold the tx open while proc 1 reads
		})
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(200) // inside proc 0's transaction window
		observed = hm.LoadNT(p, a)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != 0 {
		t.Fatalf("uncommitted write observed: %d", observed)
	}
}

// TestNTStoreDoomsReader: a non-transactional store to a line in a
// transaction's read set aborts it (the root cause of the lemming effect).
func TestNTStoreDoomsReader(t *testing.T) {
	m, hm := newTestMachine(t, 2)
	a := hm.Store().Alloc(1)
	var st Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *Tx) {
			_ = tx.Load(a)
			tx.Proc().Advance(1000)
			_ = tx.Load(a) // doomed by proc 1's store; aborts here
			t.Error("reached past a doomed access")
		})
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(200)
		hm.StoreNT(p, a, 1)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Committed || st.Cause != CauseConflict {
		t.Fatalf("status = %+v, want conflict abort", st)
	}
	if !st.Retry {
		t.Fatal("conflict abort must set the retry hint")
	}
}

// TestNTLoadDoomsWriterOnly: a non-transactional load dooms write-set
// owners but not mere readers. The writer and reader transactions touch
// disjoint lines (a and c) so they cannot conflict with each other; the NT
// proc reads both lines.
func TestNTLoadDoomsWriterOnly(t *testing.T) {
	m, hm := newTestMachine(t, 3)
	a := hm.Store().AllocLines(1)
	b := hm.Store().AllocLines(1)
	c := hm.Store().AllocLines(1)
	var stWriter, stReader Status
	m.Go(func(p *sim.Proc) { // transactional writer of a
		stWriter = hm.Atomic(p, func(tx *Tx) {
			tx.Store(a, 7)
			tx.Proc().Advance(1000)
			_ = tx.Load(b)
		})
	})
	m.Go(func(p *sim.Proc) { // transactional reader of c
		stReader = hm.Atomic(p, func(tx *Tx) {
			_ = tx.Load(c)
			tx.Proc().Advance(1000)
			_ = tx.Load(b)
		})
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(300)
		_ = hm.LoadNT(p, a)
		_ = hm.LoadNT(p, c)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if stWriter.Committed {
		t.Fatal("NT load failed to doom the transactional writer")
	}
	if !stReader.Committed {
		t.Fatalf("NT load doomed a transactional reader: %+v", stReader)
	}
}

// TestRequestorWins covers tx-vs-tx conflicts: the accessing transaction
// proceeds, the other dies.
func TestRequestorWins(t *testing.T) {
	t.Run("reader dooms writer", func(t *testing.T) {
		m, hm := newTestMachine(t, 2)
		a := hm.Store().Alloc(1)
		var stW, stR Status
		m.Go(func(p *sim.Proc) {
			stW = hm.Atomic(p, func(tx *Tx) {
				tx.Store(a, 1)
				tx.Proc().Advance(1000)
				_ = tx.Load(a)
			})
		})
		m.Go(func(p *sim.Proc) {
			p.Advance(300)
			stR = hm.Atomic(p, func(tx *Tx) {
				if v := tx.Load(a); v != 0 {
					t.Errorf("requestor read buffered value %d", v)
				}
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if stW.Committed || !stR.Committed {
			t.Fatalf("writer %+v reader %+v; want writer aborted, reader committed", stW, stR)
		}
	})
	t.Run("writer dooms readers", func(t *testing.T) {
		m, hm := newTestMachine(t, 2)
		a := hm.Store().Alloc(1)
		var stR, stW Status
		m.Go(func(p *sim.Proc) {
			stR = hm.Atomic(p, func(tx *Tx) {
				_ = tx.Load(a)
				tx.Proc().Advance(1000)
				_ = tx.Load(a)
			})
		})
		m.Go(func(p *sim.Proc) {
			p.Advance(300)
			stW = hm.Atomic(p, func(tx *Tx) {
				tx.Store(a, 9)
			})
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if stR.Committed || !stW.Committed {
			t.Fatalf("reader %+v writer %+v; want reader aborted, writer committed", stR, stW)
		}
	})
	t.Run("two readers coexist", func(t *testing.T) {
		m, hm := newTestMachine(t, 2)
		a := hm.Store().Alloc(1)
		ok := 0
		for i := 0; i < 2; i++ {
			m.Go(func(p *sim.Proc) {
				st := hm.Atomic(p, func(tx *Tx) {
					_ = tx.Load(a)
					tx.Proc().Advance(500)
					_ = tx.Load(a)
				})
				if st.Committed {
					ok++
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if ok != 2 {
			t.Fatalf("%d of 2 readers committed, want 2", ok)
		}
	})
}

func TestCapacityAborts(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 1, Seed: 7})
	hm := NewMemory(m, Config{Words: 1 << 16, Cost: testCost(), MaxReadLines: 4, MaxWriteLines: 2})
	base := hm.Store().AllocLines(16)
	var stR, stW Status
	m.Go(func(p *sim.Proc) {
		stR = hm.Atomic(p, func(tx *Tx) {
			for i := 0; i < 8; i++ {
				_ = tx.Load(base + mem.Addr(i*mem.LineWords))
			}
		})
		stW = hm.Atomic(p, func(tx *Tx) {
			for i := 0; i < 8; i++ {
				tx.Store(base+mem.Addr(i*mem.LineWords), 1)
			}
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Status{"read": stR, "write": stW} {
		if st.Committed || st.Cause != CauseCapacity {
			t.Errorf("%s overflow status = %+v, want capacity abort", name, st)
		}
		if st.Retry {
			t.Errorf("%s capacity abort must clear the retry hint", name)
		}
	}
}

// TestWriteSetBeyondSlotsPanics: NewMemory and Reset refuse a write set
// larger than a line's buffer slot can index, rather than wrap slots.
func TestWriteSetBeyondSlotsPanics(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 1, Seed: 7})
	most := Config{Words: 1 << 10, MaxWriteLines: math.MaxUint16 + 1}
	hm := NewMemory(m, most)
	hm.Reset(m, most)
	over := Config{Words: 1 << 10, MaxWriteLines: math.MaxUint16 + 2}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"NewMemory", func() { NewMemory(m, over) }},
		{"Reset", func() { hm.Reset(m, over) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted MaxWriteLines %d", c.name, over.MaxWriteLines)
				}
			}()
			c.f()
		}()
	}
}

func TestSpuriousAborts(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 1, Seed: 7})
	cost := testCost()
	cost.SpuriousDenom = 3 // absurdly high rate, to observe quickly
	hm := NewMemory(m, Config{Words: 1 << 12, Cost: cost})
	a := hm.Store().Alloc(1)
	sawSpurious := false
	m.Go(func(p *sim.Proc) {
		for i := 0; i < 50 && !sawSpurious; i++ {
			st := hm.Atomic(p, func(tx *Tx) { _ = tx.Load(a) })
			if st.Cause == CauseSpurious {
				sawSpurious = true
			}
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawSpurious {
		t.Fatal("no spurious abort in 50 transactions at denom 3")
	}
}

// TestDivisorMatchesModulo checks the precomputed divisibility test the
// spurious draw uses against x%d == 0, over random values, multiples of d
// and their neighbours, including the default denominator (250000), its SMT
// value (15625) and the extremes.
func TestDivisorMatchesModulo(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, d := range []uint64{1, 2, 3, 7, 16, 15625, 250000, 1 << 63, math.MaxUint64} {
		v := newDivisor(d)
		check := func(x uint64) {
			if got, want := v.divides(x), x%d == 0; got != want {
				t.Fatalf("d=%d x=%d: divides = %v, want %v", d, x, got, want)
			}
		}
		check(0)
		check(math.MaxUint64)
		q := math.MaxUint64 / d // largest k with k·d in range
		for i := 0; i < 10000; i++ {
			check(r.Uint64())
			k := r.Uint64()
			if q < math.MaxUint64 {
				k %= q + 1
			}
			check(k * d)
			check(k*d + 1)
			check(k*d - 1)
		}
	}
}

// TestSpuriousDrawMatchesRandN runs transactions at a high spurious-abort
// rate, with and without an active SMT sibling, and checks that they abort
// at exactly the accesses a RandN-based reference draw predicts, with its
// retry hint, and leave the proc's RNG where the reference leaves it.
func TestSpuriousDrawMatchesRandN(t *testing.T) {
	const txs, loads = 200, 8
	for _, smt := range []bool{false, true} {
		cfg := sim.Config{Procs: 2, Seed: 11}
		d := uint64(12)
		if smt {
			cfg.Cores = 1 // procs 0 and 1 share a core
			d = 3         // SpuriousDenom / HTSpuriousDiv
		}
		m := sim.MustNew(cfg)
		cost := testCost()
		cost.SpuriousDenom, cost.HTSpuriousDiv = 12, 4
		hm := NewMemory(m, Config{Words: 1 << 12, Cost: cost})
		a := hm.Store().Alloc(loads)
		type outcome struct {
			at    int // index of the aborting access; loads when committed
			retry bool
		}
		var got []outcome
		siblingWrong := false
		m.Go(func(p *sim.Proc) {
			for i := 0; i < txs; i++ {
				n := 0
				st := hm.Atomic(p, func(tx *Tx) {
					for ; n < loads; n++ {
						siblingWrong = siblingWrong || tx.Proc().SiblingActive() != smt
						tx.Load(a + mem.Addr(n))
					}
				})
				if !st.Committed && st.Cause != CauseSpurious {
					t.Errorf("transaction %d aborted with %v", i, st.Cause)
				}
				got = append(got, outcome{n, st.Retry})
			}
		})
		// The sibling parks far ahead in virtual time, staying runnable for
		// every access proc 0 makes.
		m.Go(func(p *sim.Proc) { p.Advance(1 << 40) })
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if siblingWrong {
			t.Fatalf("smt=%v: SiblingActive differed from the configuration during an access", smt)
		}

		ref := sim.MustNew(cfg).Proc(0)
		aborts := 0
		for i := 0; i < txs; i++ {
			want := outcome{at: loads, retry: false}
			for k := 0; k < loads; k++ {
				if ref.RandN(d) == 0 {
					want = outcome{at: k, retry: ref.RandN(2) != 0}
					aborts++
					break
				}
			}
			if got[i] != want {
				t.Fatalf("smt=%v transaction %d: got %+v, reference %+v", smt, i, got[i], want)
			}
		}
		if aborts == 0 || aborts == txs {
			t.Fatalf("smt=%v: %d of %d transactions aborted; the check needs both outcomes", smt, aborts, txs)
		}
		if x, y := m.Proc(0).Rand64(), ref.Rand64(); x != y {
			t.Fatalf("smt=%v: proc RNG at %#x after the run, reference at %#x", smt, x, y)
		}
	}
}

func TestWaitTimesOutWithInterrupt(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 1, Seed: 7})
	cost := testCost()
	cost.TxTimer = 500
	hm := NewMemory(m, Config{Words: 1 << 12, Cost: cost})
	a := hm.Store().Alloc(1)
	var st Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *Tx) { tx.Wait(a) })
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Committed || st.Cause != CauseInterrupt {
		t.Fatalf("status = %+v, want interrupt abort", st)
	}
}

// TestWaitAbortsOnStore models the HLE in-transaction spinner: the store
// that changes the awaited location dooms and wakes the waiter.
func TestWaitAbortsOnStore(t *testing.T) {
	m, hm := newTestMachine(t, 2)
	a := hm.Store().Alloc(1)
	var st Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *Tx) { tx.Wait(a) })
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(500)
		hm.StoreNT(p, a, 1)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Committed || st.Cause != CauseConflict {
		t.Fatalf("status = %+v, want conflict abort from the waking store", st)
	}
}

// --- HLE elision tests -------------------------------------------------------

func TestElisionIllusionAndRestore(t *testing.T) {
	m, hm := newTestMachine(t, 2)
	lock := hm.Store().Alloc(1)
	var duringTx, afterTx int64
	var observedByOther int64 = -1
	m.Go(func(p *sim.Proc) {
		st := hm.Atomic(p, func(tx *Tx) {
			old := tx.ElideRMW(lock, func(int64) int64 { return 1 }) // XACQUIRE TAS
			if old != 0 {
				t.Errorf("elided TAS read %d, want 0", old)
			}
			duringTx = tx.Load(lock) // the illusion: we "hold" the lock
			tx.Proc().Advance(500)
			tx.ReleaseStore(lock, 0) // XRELEASE restore
		})
		if !st.Committed {
			t.Errorf("elided transaction aborted: %+v", st)
		}
		afterTx = hm.LoadNT(p, lock)
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(300) // while proc 0 is "holding" the elided lock
		observedByOther = hm.LoadNT(p, lock)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if duringTx != 1 {
		t.Fatalf("in-tx lock read %d, want illusion value 1", duringTx)
	}
	if observedByOther != 0 {
		t.Fatalf("other proc observed elided lock as %d, want 0 (elision is invisible)", observedByOther)
	}
	if afterTx != 0 {
		t.Fatalf("lock after commit = %d, want 0", afterTx)
	}
}

func TestReleaseMismatchAborts(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	lock := hm.Store().Alloc(1)
	var st Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *Tx) {
			tx.ElideRMW(lock, func(int64) int64 { return 1 })
			tx.ReleaseStore(lock, 7) // does not restore the original 0
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Committed || st.Cause != CauseHLEMismatch {
		t.Fatalf("status = %+v, want HLE-mismatch abort", st)
	}
}

func TestCommitWithoutReleaseAborts(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	lock := hm.Store().Alloc(1)
	var st Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *Tx) {
			tx.ElideRMW(lock, func(int64) int64 { return 1 })
			// no XRELEASE: lock not restored at commit
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Committed || st.Cause != CauseHLEMismatch {
		t.Fatalf("status = %+v, want HLE-mismatch abort at commit", st)
	}
}

func TestPlainStoreToElidedLockAborts(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	lock := hm.Store().Alloc(1)
	var st Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *Tx) {
			tx.ElideRMW(lock, func(int64) int64 { return 1 })
			tx.Store(lock, 0) // plain store breaks the illusion
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Committed || st.Cause != CauseHLEMismatch {
		t.Fatalf("status = %+v, want HLE-mismatch abort", st)
	}
}

func TestReleaseCAS(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	next := hm.Store().Alloc(1)
	hm.Store().StoreWord(next, 5) // ticket lock with next=owner=5
	var st Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *Tx) {
			old := tx.ElideRMW(next, func(v int64) int64 { return v + 1 }) // XACQUIRE F&A
			if old != 5 {
				t.Errorf("elided F&A read %d, want 5", old)
			}
			// Adapted ticket unlock: CAS next from owner+1 back to owner.
			if !tx.ReleaseCAS(next, 6, 5) {
				t.Error("restore CAS failed in solo speculative run")
			}
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !st.Committed {
		t.Fatalf("adapted-ticket transaction aborted: %+v", st)
	}
}

// TestOpacityErroneousExample reproduces §5's erroneous example: a lock-free
// transaction observes X=0 (old) and Y=1 (new) — an inconsistent state —
// while a non-transactional lock holder is mid-update. SLR's commit-time
// lock check must prevent the inconsistent state from committing.
func TestOpacityErroneousExample(t *testing.T) {
	m, hm := newTestMachine(t, 2)
	lock := hm.Store().Alloc(1)
	x := hm.Store().AllocLines(1)
	y := hm.Store().AllocLines(1)
	var sawX, sawY, sawLock int64
	var st Status
	m.Go(func(p *sim.Proc) { // T1: SLR-style transaction, never locks
		st = hm.Atomic(p, func(tx *Tx) {
			sawX = tx.Load(x)       // reads 0
			tx.Proc().Advance(1000) // T2 stores Y=1 in this window
			sawY = tx.Load(y)       // reads 1: inconsistent with X=0!
			sawLock = tx.Load(lock) // SLR commit check
			if sawLock != 0 {
				tx.Abort(1)
			}
		})
	})
	m.Go(func(p *sim.Proc) { // T2: non-speculative lock holder
		p.Advance(300)
		hm.StoreNT(p, lock, 1)
		hm.StoreNT(p, y, 1)
		p.Advance(5000) // still holding the lock when T1 checks
		hm.StoreNT(p, x, 1)
		hm.StoreNT(p, lock, 0)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if sawX != 0 || sawY != 1 {
		t.Fatalf("observed X=%d Y=%d, want the inconsistent X=0 Y=1", sawX, sawY)
	}
	if st.Committed {
		t.Fatal("transaction committed an inconsistent state; SLR check failed")
	}
	if st.Cause != CauseExplicit || st.Code != 1 {
		t.Fatalf("status = %+v, want explicit SLR abort", st)
	}
}

func TestFlatNesting(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	a := hm.Store().Alloc(1)
	m.Go(func(p *sim.Proc) {
		st := hm.Atomic(p, func(tx *Tx) {
			tx.Store(a, 1)
			inner := hm.Atomic(p, func(tx2 *Tx) {
				if tx2 != tx {
					t.Error("nested Atomic created a second transaction")
				}
				tx2.Store(a, 2)
			})
			if !inner.Committed {
				t.Error("nested Atomic did not report committed")
			}
		})
		if !st.Committed {
			t.Errorf("outer status %+v", st)
		}
		if v := hm.LoadNT(p, a); v != 2 {
			t.Errorf("a = %d, want 2", v)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedAbortUnwindsToOutermost(t *testing.T) {
	m, hm := newTestMachine(t, 1)
	a := hm.Store().Alloc(1)
	var st Status
	m.Go(func(p *sim.Proc) {
		st = hm.Atomic(p, func(tx *Tx) {
			tx.Store(a, 1)
			hm.Atomic(p, func(tx2 *Tx) { tx2.Abort(9) })
			t.Error("outer body continued after nested abort")
		})
		if v := hm.LoadNT(p, a); v != 0 {
			t.Errorf("a = %d after nested abort, want 0", v)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Committed || st.Code != 9 {
		t.Fatalf("status = %+v, want explicit code 9", st)
	}
}

// TestConcurrentCountersSerializable: N procs each add 1 to a shared counter
// K times inside transactions with a retry-then-give-up-never loop; the
// final value must be exactly N*K (transactions are atomic).
func TestConcurrentCountersSerializable(t *testing.T) {
	const procs, iters = 8, 50
	m, hm := newTestMachine(t, procs)
	ctr := hm.Store().Alloc(1)
	for i := 0; i < procs; i++ {
		m.Go(func(p *sim.Proc) {
			for k := 0; k < iters; k++ {
				for {
					st := hm.Atomic(p, func(tx *Tx) {
						v := tx.Load(ctr)
						tx.Proc().Advance(uint64(20 + p.RandN(50)))
						tx.Store(ctr, v+1)
					})
					if st.Committed {
						break
					}
					p.Advance(uint64(50 + p.RandN(200))) // backoff
				}
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	final := hm.Store().Load(ctr)
	if final != procs*iters {
		t.Fatalf("counter = %d, want %d", final, procs*iters)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int64, uint64) {
		m := sim.MustNew(sim.Config{Procs: 4, Seed: 123})
		cost := testCost()
		cost.SpuriousDenom = 50
		hm := NewMemory(m, Config{Words: 1 << 14, Cost: cost})
		ctr := hm.Store().Alloc(1)
		for i := 0; i < 4; i++ {
			m.Go(func(p *sim.Proc) {
				for k := 0; k < 30; k++ {
					for {
						st := hm.Atomic(p, func(tx *Tx) {
							tx.Store(ctr, tx.Load(ctr)+1)
						})
						if st.Committed {
							break
						}
					}
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return hm.Store().Load(ctr), m.Proc(0).Clock()
	}
	v1, c1 := run()
	v2, c2 := run()
	if v1 != v2 || c1 != c2 {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", v1, c1, v2, c2)
	}
}
