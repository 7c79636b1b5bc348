package core

import (
	"strings"
	"testing"

	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/sim"
)

func testCost() sim.CostModel {
	return sim.CostModel{
		MemHit:      10,
		MemMiss:     10,
		TxBegin:     10,
		TxCommit:    10,
		TxAbort:     30,
		SpinIter:    5,
		WakeLatency: 5,
		TxTimer:     100_000,
	}
}

// rig is a fully wired machine: memory, one elidable lock, all six schemes.
type rig struct {
	m       *sim.Machine
	hm      *htm.Memory
	lock    locks.Elidable
	schemes map[string]Scheme
}

func newRig(t *testing.T, procs int, lockName string, seed uint64) *rig {
	t.Helper()
	m := sim.MustNew(sim.Config{Procs: procs, Seed: seed})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 18, Cost: testCost()})
	var l locks.Elidable
	switch lockName {
	case "ttas":
		l = locks.NewTTAS(hm)
	case "mcs":
		l = locks.NewMCS(hm, procs)
	case "ticket-hle":
		l = locks.NewTicketHLE(hm, procs)
	case "clh-hle":
		l = locks.NewCLHHLE(hm, procs)
	default:
		t.Fatalf("unknown lock %q", lockName)
	}
	aux1 := locks.NewMCS(hm, procs)
	aux2 := locks.NewMCS(hm, procs)
	return &rig{
		m:    m,
		hm:   hm,
		lock: l,
		schemes: map[string]Scheme{
			"standard":    NewStandard(hm, l),
			"hle":         NewHLE(hm, l),
			"hle-retries": NewHLERetries(hm, l, DefaultMaxRetries),
			"hle-scm":     NewSCM(hm, l, aux1, OverHLE),
			"opt-slr":     NewSLR(hm, l),
			"slr-scm":     NewSCM(hm, l, aux2, OverSLR),
		},
	}
}

var allSchemeNames = []string{"standard", "hle", "hle-retries", "hle-scm", "opt-slr", "slr-scm"}

var allLockNames = []string{"ttas", "mcs", "ticket-hle", "clh-hle"}

// TestEverySchemeEveryLockCountsExactly is the end-to-end correctness net:
// 8 threads increment one shared counter through Critical; every scheme on
// every lock must produce exactly procs*iters — no lost updates, no
// double-applied fallbacks, under heavy conflict.
func TestEverySchemeEveryLockCountsExactly(t *testing.T) {
	const procs, iters = 8, 30
	for _, ln := range allLockNames {
		for _, sn := range allSchemeNames {
			ln, sn := ln, sn
			t.Run(ln+"/"+sn, func(t *testing.T) {
				r := newRig(t, procs, ln, 17)
				s := r.schemes[sn]
				ctr := r.hm.Store().AllocLines(1)
				var stats Stats
				for i := 0; i < procs; i++ {
					r.m.Go(func(p *sim.Proc) {
						for k := 0; k < iters; k++ {
							o := s.Critical(p, func(c htm.Ctx) {
								v := c.Load(ctr)
								c.Work(10 + p.RandN(20))
								c.Store(ctr, v+1)
							})
							stats.Add(o)
							p.Advance(p.RandN(200))
						}
					})
				}
				if err := r.m.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if got := r.hm.Store().Load(ctr); got != procs*iters {
					t.Fatalf("counter = %d, want %d", got, procs*iters)
				}
				if stats.Ops != procs*iters {
					t.Fatalf("stats.Ops = %d, want %d", stats.Ops, procs*iters)
				}
			})
		}
	}
}

// TestReadOnlySpeculationCommits: with no data conflicts, every speculative
// scheme should complete (nearly) everything speculatively.
func TestReadOnlySpeculationCommits(t *testing.T) {
	const procs, iters = 8, 40
	for _, sn := range []string{"hle", "hle-retries", "hle-scm", "opt-slr", "slr-scm"} {
		sn := sn
		t.Run(sn, func(t *testing.T) {
			r := newRig(t, procs, "ttas", 23)
			s := r.schemes[sn]
			data := r.hm.Store().AllocLines(8)
			var stats Stats
			for i := 0; i < procs; i++ {
				r.m.Go(func(p *sim.Proc) {
					for k := 0; k < iters; k++ {
						o := s.Critical(p, func(c htm.Ctx) {
							for j := 0; j < 8; j++ {
								_ = c.Load(data + mem.Addr(j*mem.LineWords))
							}
						})
						stats.Add(o)
					}
				})
			}
			if err := r.m.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if stats.NonSpec != 0 {
				t.Fatalf("%d of %d read-only ops went non-speculative", stats.NonSpec, stats.Ops)
			}
		})
	}
}

// TestLemmingEffect reproduces §4 qualitatively at unit-test scale: under a
// mostly-read workload with occasional conflicting writes, raw HLE over the
// fair MCS lock collapses to non-speculative execution, while raw HLE over
// TTAS recovers, and SCM rescues the MCS lock.
func TestLemmingEffect(t *testing.T) {
	const procs, iters, nLines = 8, 60, 64
	run := func(lockName, schemeName string) Stats {
		r := newRig(t, procs, lockName, 31)
		s := r.schemes[schemeName]
		data := r.hm.Store().AllocLines(nLines)
		at := func(i uint64) mem.Addr { return data + mem.Addr(i*mem.LineWords) }
		var stats Stats
		for i := 0; i < procs; i++ {
			r.m.Go(func(p *sim.Proc) {
				for k := 0; k < iters; k++ {
					write := p.RandN(100) < 15
					target := p.RandN(nLines)
					o := s.Critical(p, func(c htm.Ctx) {
						// Read a random handful of lines (a lookup walk)...
						for j := 0; j < 4; j++ {
							_ = c.Load(at(p.RandN(nLines)))
						}
						c.Work(50)
						// ...and occasionally mutate one (an update).
						if write {
							c.Store(at(target), int64(k))
						}
					})
					stats.Add(o)
				}
			})
		}
		if err := r.m.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return stats
	}
	hleMCS := run("mcs", "hle")
	hleTTAS := run("ttas", "hle")
	scmMCS := run("mcs", "hle-scm")
	if f := hleMCS.NonSpecFraction(); f < 0.5 {
		t.Errorf("HLE-MCS non-speculative fraction = %.2f; expected lemming collapse (> 0.5)", f)
	}
	if f := hleTTAS.NonSpecFraction(); f > 0.5 {
		t.Errorf("HLE-TTAS non-speculative fraction = %.2f; expected recovery (< 0.5)", f)
	}
	if fm, fs := hleMCS.NonSpecFraction(), scmMCS.NonSpecFraction(); fs >= fm {
		t.Errorf("HLE-SCM on MCS (%.2f) did not improve on raw HLE (%.2f)", fs, fm)
	}
}

// TestSLRCommitsAlongsideLockHolder verifies SLR's key concurrency claim
// (§5): a thread running non-transactionally with the lock does not doom
// transactions that finish after it releases, nor stop new arrivals from
// speculating. A non-conflicting SLR transaction that commits after the
// holder released must succeed.
func TestSLRCommitsAlongsideLockHolder(t *testing.T) {
	const procs = 2
	r := newRig(t, procs, "ttas", 5)
	s := r.schemes["opt-slr"].(*Engine)
	a := r.hm.Store().AllocLines(1) // holder's data
	b := r.hm.Store().AllocLines(1) // speculator's data
	var spec Outcome
	r.m.Go(func(p *sim.Proc) { // lock holder, non-speculative
		r.lock.Lock(p)
		r.hm.StoreNT(p, a, 1)
		p.Advance(2_000)
		r.lock.Unlock(p)
	})
	r.m.Go(func(p *sim.Proc) { // SLR transaction overlapping the hold
		p.Advance(500)
		spec = s.Critical(p, func(c htm.Ctx) {
			v := c.Load(b)
			c.Work(5_000) // still inside tx when the holder releases
			c.Store(b, v+1)
		})
	})
	if err := r.m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !spec.Speculative {
		t.Fatalf("SLR transaction did not commit alongside/after lock holder: %+v", spec)
	}
	if got := r.hm.Store().Load(b); got != 1 {
		t.Fatalf("speculative update lost: b = %d", got)
	}
}

// TestSCMSerializesConflictors: two persistently conflicting threads under
// SCM must both make progress (no livelock) and the serializing path must
// actually be used.
func TestSCMSerializesConflictors(t *testing.T) {
	for _, sn := range []string{"hle-scm", "slr-scm"} {
		sn := sn
		t.Run(sn, func(t *testing.T) {
			const procs, iters = 4, 40
			r := newRig(t, procs, "mcs", 41)
			s := r.schemes[sn]
			data := r.hm.Store().AllocLines(1)
			var stats Stats
			for i := 0; i < procs; i++ {
				r.m.Go(func(p *sim.Proc) {
					for k := 0; k < iters; k++ {
						o := s.Critical(p, func(c htm.Ctx) {
							c.Store(data, c.Load(data)+1)
							c.Work(100)
						})
						stats.Add(o)
					}
				})
			}
			if err := r.m.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := r.hm.Store().Load(data); got != procs*iters {
				t.Fatalf("counter = %d, want %d", got, procs*iters)
			}
			if stats.AuxAcquires == 0 {
				t.Error("all-conflict workload never used the serializing path")
			}
		})
	}
}

// TestHLEAttemptAccounting sanity-checks §4's attempt arithmetic on a
// conflict-free solo run: one attempt, zero aborts, speculative.
func TestHLEAttemptAccounting(t *testing.T) {
	r := newRig(t, 1, "ttas", 3)
	s := r.schemes["hle"]
	data := r.hm.Store().AllocLines(1)
	var o Outcome
	r.m.Go(func(p *sim.Proc) {
		o = s.Critical(p, func(c htm.Ctx) { c.Store(data, 7) })
	})
	if err := r.m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !o.Speculative || o.Attempts != 1 || o.Aborts != 0 {
		t.Fatalf("solo HLE outcome = %+v, want 1 speculative attempt", o)
	}
	if got := r.hm.Store().Load(data); got != 7 {
		t.Fatalf("data = %d, want 7", got)
	}
}

// TestStatsArithmetic exercises the derived metrics.
func TestStatsArithmetic(t *testing.T) {
	var s Stats
	s.Add(Outcome{Speculative: true, Attempts: 1})
	s.Add(Outcome{Speculative: false, Attempts: 3, Aborts: 2, LastCause: htm.CauseConflict})
	if got := s.NonSpecFraction(); got != 0.5 {
		t.Fatalf("NonSpecFraction = %v, want 0.5", got)
	}
	if got := s.AttemptsPerOp(); got != 2.0 {
		t.Fatalf("AttemptsPerOp = %v, want 2.0", got)
	}
	var m Stats
	m.Merge(s)
	m.Merge(s)
	if m.Ops != 4 || m.Aborts != 4 || m.ByCause[htm.CauseConflict] != 2 {
		t.Fatalf("Merge result wrong: %+v", m)
	}
}

// TestSchemeNames pins the names used by benchmark output.
func TestSchemeNames(t *testing.T) {
	r := newRig(t, 2, "ttas", 1)
	want := map[string]string{
		"standard":    "standard",
		"hle":         "hle",
		"hle-retries": "hle-retries",
		"hle-scm":     "hle-scm",
		"opt-slr":     "opt-slr",
		"slr-scm":     "slr-scm",
	}
	for key, name := range want {
		if got := r.schemes[key].Name(); got != name {
			t.Errorf("scheme %s Name() = %q, want %q", key, got, name)
		}
	}
	if got := NewNoLock(r.hm).Name(); got != "nolock" {
		t.Errorf("NoLock.Name() = %q", got)
	}
	for _, name := range SchemeNames() {
		procs := 2
		if name == SchemeNameNoLock {
			procs = 1
		}
		if s, err := BuildScheme(r.hm, name, r.lock, procs); err != nil || s.Name() != name {
			t.Errorf("BuildScheme(%s) = %v, %v", name, s, err)
		}
	}
	// nolock's unsynchronized bodies corrupt shared state under more than
	// one thread, so the factory refuses that instead of building a hang.
	if _, err := BuildScheme(r.hm, SchemeNameNoLock, r.lock, 2); err == nil || !strings.Contains(err.Error(), "one thread") {
		t.Errorf("BuildScheme(nolock, 2 procs) = %v, want a one-thread error", err)
	}
}

// TestDeterministicSchemes: same seed, same final stats — the whole stack
// stays reproducible through the scheme layer.
func TestDeterministicSchemes(t *testing.T) {
	run := func() (int64, Stats) {
		const procs, iters = 6, 25
		r := newRig(t, procs, "mcs", 99)
		s := r.schemes["slr-scm"]
		data := r.hm.Store().AllocLines(1)
		var stats Stats
		for i := 0; i < procs; i++ {
			r.m.Go(func(p *sim.Proc) {
				for k := 0; k < iters; k++ {
					stats.Add(s.Critical(p, func(c htm.Ctx) {
						c.Store(data, c.Load(data)+1)
					}))
				}
			})
		}
		if err := r.m.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return r.hm.Store().Load(data), stats
	}
	v1, s1 := run()
	v2, s2 := run()
	if v1 != v2 || s1 != s2 {
		t.Fatalf("replay diverged: %d/%+v vs %d/%+v", v1, s1, v2, s2)
	}
}
