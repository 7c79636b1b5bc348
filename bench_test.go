package elision

// One testing.B benchmark per table/figure in the paper's evaluation
// section. Each bench regenerates its figure at a reduced (deterministic)
// scale and reports a headline metric so regressions in either simulator
// performance or reproduced *shape* are visible:
//
//	BenchmarkFig2LemmingEffect  — §4, Figure 2
//	BenchmarkFig3Dynamics       — §4, Figure 3
//	BenchmarkFig4HLESpeedup     — §7.1, Figure 4
//	BenchmarkFig9Scaling        — §7.1, Figure 9
//	BenchmarkFig10Schemes       — §7.1, Figure 10
//	BenchmarkFig11Stamp         — §7.2, Figure 11
//
// Full-scale regeneration is done by cmd/reproduce, one results/ file per
// figure; `reproduce -only figure2` runs one (see EXPERIMENTS.md).

import (
	"strconv"
	"testing"

	"elision/internal/harness"
	"elision/internal/sim"
)

// benchScale is a small sweep that still exhibits every qualitative shape.
func benchScale() harness.Scale {
	sc := harness.TestScale()
	sc.Budget = 400_000
	sc.Sizes = []int{2, 128, 8192}
	return sc
}

func BenchmarkFig2LemmingEffect(b *testing.B) {
	sc := benchScale()
	var nonspecMCS float64
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		_ = harness.Figure2(r, sc)
		hle := r.Run(harness.DSConfig{
			Structure: harness.StructTree, Threads: 8, Size: 128,
			Mix: harness.MixModerate, Scheme: harness.SchemeHLE, Lock: harness.LockMCS,
			BudgetCycles: sc.Budget, Seed: sc.Seed, Quantum: sc.Quantum,
		})
		nonspecMCS = hle.Stats.NonSpecFraction()
	}
	b.ReportMetric(nonspecMCS, "mcs-nonspec-frac")
}

func BenchmarkFig3Dynamics(b *testing.B) {
	sc := benchScale()
	var slots int
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		tabs := harness.Figure3(r, sc)
		slots = len(tabs[0].Rows)
	}
	b.ReportMetric(float64(slots), "time-slots")
}

func BenchmarkFig4HLESpeedup(b *testing.B) {
	sc := benchScale()
	var rows int
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		tabs := harness.Figure4(r, sc)
		rows = len(tabs) * len(tabs[0].Rows)
	}
	b.ReportMetric(float64(rows), "points")
}

func BenchmarkFig9Scaling(b *testing.B) {
	sc := benchScale()
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		_ = harness.Figure9(r, sc)
		base := r.Run(harness.DSConfig{
			Structure: harness.StructTree, Threads: 1, Size: 128,
			Mix: harness.MixModerate, Scheme: harness.SchemeNoLock, Lock: harness.LockTTAS,
			BudgetCycles: sc.Budget, Seed: sc.Seed, Quantum: sc.Quantum,
		})
		slr := r.Run(harness.DSConfig{
			Structure: harness.StructTree, Threads: 8, Size: 128,
			Mix: harness.MixModerate, Scheme: harness.SchemeOptSLR, Lock: harness.LockMCS,
			BudgetCycles: sc.Budget, Seed: sc.Seed, Quantum: sc.Quantum,
		})
		speedup = slr.Throughput() / base.Throughput()
	}
	b.ReportMetric(speedup, "slr-mcs-8t-speedup")
}

func BenchmarkFig10Schemes(b *testing.B) {
	sc := benchScale()
	var gain float64
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		_ = harness.Figure10(r, sc)
		hle := r.Run(harness.DSConfig{
			Structure: harness.StructTree, Threads: 8, Size: 128,
			Mix: harness.MixModerate, Scheme: harness.SchemeHLE, Lock: harness.LockMCS,
			BudgetCycles: sc.Budget, Seed: sc.Seed, Quantum: sc.Quantum,
		})
		scm := r.Run(harness.DSConfig{
			Structure: harness.StructTree, Threads: 8, Size: 128,
			Mix: harness.MixModerate, Scheme: harness.SchemeHLESCM, Lock: harness.LockMCS,
			BudgetCycles: sc.Budget, Seed: sc.Seed, Quantum: sc.Quantum,
		})
		gain = scm.Throughput() / hle.Throughput()
	}
	b.ReportMetric(gain, "scm-over-hle-mcs")
}

func BenchmarkFig11Stamp(b *testing.B) {
	sc := harness.TestStampScale()
	var tables int
	for i := 0; i < b.N; i++ {
		tabs, err := harness.Figure11(sc, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		tables = len(tabs)
	}
	b.ReportMetric(float64(tables), "tables")
}

// BenchmarkHashTable covers §7.1's second data structure.
func BenchmarkHashTable(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		_ = harness.HashTableComparison(r, sc)
	}
}

// --- simulator microbenches (host performance, not paper figures) -----------

// BenchmarkSimTxThroughput measures host-time cost per simulated
// transaction at various thread counts.
func BenchmarkSimTxThroughput(b *testing.B) {
	for _, threads := range []int{1, 2, 8} {
		b.Run(strconv.Itoa(threads)+"threads", func(b *testing.B) {
			sys, err := NewSystem(Config{Threads: threads, Seed: 1, Quantum: 128})
			if err != nil {
				b.Fatal(err)
			}
			lock := sys.NewTTASLock()
			scheme := sys.NewHLE(lock)
			data := sys.Alloc(64)
			per := b.N/threads + 1
			for t := 0; t < threads; t++ {
				sys.Go(func(p *Proc) {
					for k := 0; k < per; k++ {
						scheme.Critical(p, func(c Ctx) {
							_ = c.Load(data + Addr(p.RandN(64))*8)
						})
					}
				})
			}
			if err := sys.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSchedulerHandoff measures the raw cost of a virtual-time yield.
func BenchmarkSchedulerHandoff(b *testing.B) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 1})
	per := b.N/2 + 1
	for i := 0; i < 2; i++ {
		m.Go(func(p *sim.Proc) {
			for k := 0; k < per; k++ {
				p.Advance(10)
			}
		})
	}
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
