package main

import (
	"runtime"
	"time"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/sim"
)

// Unit costs time one layer operation in isolation, from outside the
// program: a one-proc (or, for handoffs and SMT, a small) machine whose
// body repeats the operation. Each is the median of unitReps runs. They
// are the denominators a hot-path change sizes its claim with: a layer's
// self time in the ledger divided by its unit cost says how much of the
// layer is the operation itself.
const unitReps = 5

// unitCosts measures every isolated unit.
func unitCosts() []metric {
	load, commit, abort, abortAllocs := htmUnits()
	ms := []metric{
		{"sim.unit_advance_ns", "ns", medianOf(func() float64 { return advanceUnit(1, 0) })},
		{"sim.unit_advance_smt_ns", "ns", medianOf(func() float64 { return advanceUnit(8, 4) })},
		{"sim.unit_handoff_ns", "ns", medianOf(handoffUnit)},
		{"htm.unit_tx_load_ns", "ns", load},
		{"htm.unit_commit_ns", "ns", commit},
		{"htm.unit_abort_ns", "ns", abort},
		{"htm.unit_abort_allocs", "1/abort", abortAllocs},
		{"locks.unit_mcs_ns", "ns", medianOf(func() float64 { return lockUnit(core.LockNameMCS) })},
		{"locks.unit_ttas_ns", "ns", medianOf(func() float64 { return lockUnit(core.LockNameTTAS) })},
	}
	for _, s := range []string{core.SchemeNameStandard, core.SchemeNameHLE, core.SchemeNameHLERetries,
		core.SchemeNameHLESCM, core.SchemeNameOptSLR, core.SchemeNameSLRSCM} {
		ms = append(ms, metric{"core.unit_critical_ns." + s, "ns", medianOf(func() float64 { return criticalUnit(s) })})
	}
	return ms
}

func medianOf(f func() float64) float64 {
	xs := make([]float64, unitReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// runOn runs body on a machine of procs procs and returns Machine.Run's
// host time. Procs share the body.
func runOn(cfg sim.Config, body func(p *sim.Proc)) time.Duration {
	m := sim.MustNew(cfg)
	for i := 0; i < cfg.Procs; i++ {
		m.Go(body)
	}
	t0 := time.Now()
	if err := m.Run(); err != nil {
		panic(err) // the unit bodies cannot block
	}
	return time.Since(t0)
}

// advanceUnit is ns per Proc.Advance with a quantum so large that procs
// almost never hand off: the clock update plus, with cores set, the SMT
// sibling scan.
func advanceUnit(procs, cores int) float64 {
	const n = 1 << 21
	d := runOn(sim.Config{Procs: procs, Seed: 1, Quantum: 1 << 40, Cores: cores}, func(p *sim.Proc) {
		for i := 0; i < n/procs; i++ {
			p.Advance(1)
		}
	})
	return float64(d.Nanoseconds()) / n
}

// handoffUnit is ns per Advance when every Advance hands the token to the
// other proc (two procs, quantum 0): the scheduler's goroutine handoff.
func handoffUnit() float64 {
	const n = 1 << 17
	d := runOn(sim.Config{Procs: 2, Seed: 1}, func(p *sim.Proc) {
		for i := 0; i < n/2; i++ {
			p.Advance(10)
		}
	})
	return float64(d.Nanoseconds()) / n
}

// onMemory runs body on a one-proc machine with a small memory.
func onMemory(body func(p *sim.Proc, hm *htm.Memory)) time.Duration {
	m := sim.MustNew(sim.Config{Procs: 1, Seed: 1})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 14})
	m.Go(func(p *sim.Proc) { body(p, hm) })
	t0 := time.Now()
	if err := m.Run(); err != nil {
		panic(err)
	}
	return time.Since(t0)
}

// htmUnits measures a transactional load that hits the read set (the
// difference between transactions of 64 loads and empty ones), an empty
// transaction's begin and commit, and a transaction that aborts itself:
// begin, XABORT and the unwind back to Atomic, with its allocations.
func htmUnits() (load, commit, abort, abortAllocs float64) {
	const txs, loads = 1 << 14, 64
	var lines [8]mem.Addr
	empty := func(tx *htm.Tx) {}
	loader := func(tx *htm.Tx) {
		for i := 0; i < loads; i++ {
			tx.Load(lines[i%len(lines)])
		}
	}
	aborter := func(tx *htm.Tx) { tx.Abort(1) }
	repeat := func(body func(tx *htm.Tx)) func() float64 {
		return func() float64 {
			d := onMemory(func(p *sim.Proc, hm *htm.Memory) {
				for i := range lines {
					lines[i] = mem.Addr(64 * (i + 1))
				}
				for i := 0; i < txs; i++ {
					hm.Atomic(p, body)
				}
			})
			return float64(d.Nanoseconds()) / txs
		}
	}
	commit = medianOf(repeat(empty))
	load = (medianOf(repeat(loader)) - commit) / loads
	abort = medianOf(repeat(aborter))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	repeat(aborter)()
	runtime.ReadMemStats(&ms1)
	abortAllocs = float64(ms1.Mallocs-ms0.Mallocs) / txs
	return load, commit, abort, abortAllocs
}

// lockUnit is ns per uncontended Lock/Unlock pair.
func lockUnit(name string) float64 {
	const n = 1 << 16
	d := onMemory(func(p *sim.Proc, hm *htm.Memory) {
		l, err := core.BuildLock(hm, name, 1)
		if err != nil {
			panic(err)
		}
		var lk locks.Lock = l
		for i := 0; i < n; i++ {
			lk.Lock(p)
			lk.Unlock(p)
		}
	})
	return float64(d.Nanoseconds()) / n
}

// criticalUnit is ns per uncontended Scheme.Critical with an empty body:
// the scheme's own loop and lock protocol.
func criticalUnit(scheme string) float64 {
	const n = 1 << 15
	d := onMemory(func(p *sim.Proc, hm *htm.Memory) {
		l, err := core.BuildLock(hm, core.LockNameMCS, 1)
		if err != nil {
			panic(err)
		}
		s, err := core.BuildScheme(hm, scheme, l, 1)
		if err != nil {
			panic(err)
		}
		body := func(c htm.Ctx) {}
		for i := 0; i < n; i++ {
			s.Critical(p, body)
		}
	})
	return float64(d.Nanoseconds()) / n
}
