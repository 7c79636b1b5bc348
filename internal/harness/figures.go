package harness

import (
	"fmt"
)

// Scale sets the sweep geometry. DefaultScale approximates the paper's
// sweeps at a virtual-cycle budget that completes in minutes on a laptop;
// TestScale shrinks everything for unit tests and testing.B benches.
type Scale struct {
	// Budget is the virtual-cycle budget per thread per point.
	Budget uint64
	// SlotCycles is the Figure 3 sampling granularity.
	SlotCycles uint64
	// Sizes is the tree-size sweep (the paper uses 2..512K, powers of 4).
	Sizes []int
	// Threads is the Figure 9 thread sweep.
	Threads []int
	// Seed feeds every machine.
	Seed uint64
	// Quantum is the scheduler's clock-skew tolerance (see sim.Config).
	Quantum uint64
	// Cores, when non-zero, runs every point under the SMT model (the
	// paper's 4-core/8-thread testbed maps to Cores=4).
	Cores int
}

// DefaultScale mirrors the paper's sweep shape.
func DefaultScale() Scale {
	return Scale{
		Budget:     2_000_000,
		SlotCycles: 100_000,
		Sizes:      []int{2, 8, 32, 128, 512, 2048, 8192, 32768, 131072, 524288},
		Threads:    []int{1, 2, 4, 8},
		Seed:       42,
		Quantum:    128,
	}
}

// TestScale is a minutes-to-milliseconds shrink for tests.
func TestScale() Scale {
	return Scale{
		Budget:     300_000,
		SlotCycles: 30_000,
		Sizes:      []int{2, 32, 512},
		Threads:    []int{1, 2, 8},
		Seed:       42,
		Quantum:    128,
	}
}

// benchLocks is the pair of locks §7 evaluates.
var benchLocks = []LockID{LockTTAS, LockMCS}

// point builds the canonical 8-thread tree point for a scale.
func (sc Scale) point(size int, mix Mix, scheme SchemeID, lock LockID, threads int) DSConfig {
	return DSConfig{
		Structure:    StructTree,
		Threads:      threads,
		Size:         size,
		Mix:          mix,
		Scheme:       scheme,
		Lock:         lock,
		BudgetCycles: sc.Budget,
		Seed:         sc.Seed,
		Quantum:      sc.Quantum,
		Cores:        sc.Cores,
	}
}

// maxThreads returns the largest thread count in the scale (the paper's 8).
func (sc Scale) maxThreads() int {
	m := 1
	for _, t := range sc.Threads {
		if t > m {
			m = t
		}
	}
	return m
}

// Figure2 quantifies the lemming effect (§4): for each tree size under the
// moderate mix, the HLE speedup over the standard lock ("total work"), the
// attempts per operation, and the fraction of operations completing
// non-speculatively, for the TTAS and MCS locks.
func Figure2(r *Runner, sc Scale) []Table {
	nt := sc.maxThreads()
	var cfgs []DSConfig
	for _, size := range sc.Sizes {
		for _, lock := range benchLocks {
			cfgs = append(cfgs,
				sc.point(size, MixModerate, SchemeHLE, lock, nt),
				sc.point(size, MixModerate, SchemeStandard, lock, nt),
			)
		}
	}
	r.RunAll(cfgs)

	speed := Table{
		Title:   fmt.Sprintf("Figure 2 (top): HLE speedup over standard lock, %d threads, 20%% updates", nt),
		Columns: []string{"size", "ttas", "mcs"},
	}
	attempts := Table{
		Title:   "Figure 2 (middle): average execution attempts per critical section",
		Columns: []string{"size", "ttas", "mcs"},
	}
	nonspec := Table{
		Title:   "Figure 2 (bottom): fraction of operations completing non-speculatively",
		Columns: []string{"size", "ttas", "mcs"},
	}
	for _, size := range sc.Sizes {
		var sp, at, ns [2]float64
		for i, lock := range benchLocks {
			hle := r.Run(sc.point(size, MixModerate, SchemeHLE, lock, nt))
			std := r.Run(sc.point(size, MixModerate, SchemeStandard, lock, nt))
			sp[i] = ratio(hle.Throughput(), std.Throughput())
			at[i] = hle.Stats.AttemptsPerOp()
			ns[i] = hle.Stats.NonSpecFraction()
		}
		speed.AddRow(I(size), F2(sp[0]), F2(sp[1]))
		attempts.AddRow(I(size), F2(at[0]), F2(at[1]))
		nonspec.AddRow(I(size), F3(ns[0]), F3(ns[1]))
	}
	return []Table{speed, attempts, nonspec}
}

// Figure3 shows serialization dynamics over time on a size-64 tree: per-slot
// throughput normalized to the whole-run average, and the per-slot fraction
// of non-speculative completions, for HLE over TTAS and MCS.
func Figure3(r *Runner, sc Scale) []Table {
	nt := sc.maxThreads()
	cfgs := make([]DSConfig, len(benchLocks))
	for i, lock := range benchLocks {
		cfgs[i] = sc.point(64, MixModerate, SchemeHLE, lock, nt)
		cfgs[i].SlotCycles = sc.SlotCycles
	}
	var tables []Table
	for i, res := range r.RunAll(cfgs) {
		lock := benchLocks[i]
		var total uint64
		used := 0
		for _, s := range res.Slots {
			total += s.Ops
			if s.Ops > 0 {
				used++
			}
		}
		avg := float64(total) / float64(max(used, 1))
		t := Table{
			Title: fmt.Sprintf("Figure 3: HLE-%s dynamics, size 64, %d threads, 20%% updates (slot = %d cycles)",
				lock, nt, sc.SlotCycles),
			Columns: []string{"slot", "norm-throughput", "nonspec-fraction"},
		}
		for i, s := range res.Slots {
			if s.Ops == 0 {
				continue
			}
			t.AddRow(I(i), F2(float64(s.Ops)/avg), F3(float64(s.NonSpec)/float64(s.Ops)))
		}
		tables = append(tables, t)
	}
	return tables
}

// Figure4 shows the HLE speedup over the standard version of the same lock
// for the three contention mixes across tree sizes, 8 threads.
func Figure4(r *Runner, sc Scale) []Table {
	nt := sc.maxThreads()
	mixes := []Mix{MixLookupOnly, MixModerate, MixExtensive}
	var cfgs []DSConfig
	for _, mix := range mixes {
		for _, size := range sc.Sizes {
			for _, lock := range benchLocks {
				cfgs = append(cfgs,
					sc.point(size, mix, SchemeHLE, lock, nt),
					sc.point(size, mix, SchemeStandard, lock, nt),
				)
			}
		}
	}
	r.RunAll(cfgs)

	var tables []Table
	for _, mix := range mixes {
		t := Table{
			Title:   fmt.Sprintf("Figure 4: HLE speedup vs standard lock, %d threads, %s", nt, mix.Name()),
			Columns: []string{"size", "ttas", "mcs"},
		}
		for _, size := range sc.Sizes {
			var sp [2]float64
			for i, lock := range benchLocks {
				hle := r.Run(sc.point(size, mix, SchemeHLE, lock, nt))
				std := r.Run(sc.point(size, mix, SchemeStandard, lock, nt))
				sp[i] = ratio(hle.Throughput(), std.Throughput())
			}
			t.AddRow(I(size), F2(sp[0]), F2(sp[1]))
		}
		tables = append(tables, t)
	}
	return tables
}

// Figure9 shows thread scaling on a 128-node tree under moderate contention
// for all six schemes on both locks, normalized to a single thread with no
// locking.
func Figure9(r *Runner, sc Scale) []Table {
	size := 128
	cfgs := []DSConfig{sc.point(size, MixModerate, SchemeNoLock, LockTTAS, 1)}
	for _, lock := range benchLocks {
		for _, s := range AllSchemes {
			for _, th := range sc.Threads {
				cfgs = append(cfgs, sc.point(size, MixModerate, s, lock, th))
			}
		}
	}
	base := r.RunAll(cfgs)[0]

	var tables []Table
	for _, lock := range benchLocks {
		t := Table{
			Title: fmt.Sprintf("Figure 9: speedup vs 1 thread no-locking, 128-node tree, 20%% updates — %s lock",
				lock),
			Columns: append([]string{"threads"}, schemeCols()...),
		}
		for _, th := range sc.Threads {
			row := []string{I(th)}
			for _, s := range AllSchemes {
				res := r.Run(sc.point(size, MixModerate, s, lock, th))
				row = append(row, F2(ratio(res.Throughput(), base.Throughput())))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

// figure10Schemes are the software-assisted schemes Figure 10 compares
// against the plain-HLE baseline.
var figure10Schemes = []SchemeID{SchemeHLERetries, SchemeHLESCM, SchemeOptSLR, SchemeSLRSCM}

// Figure10 shows the speedup of the software-assisted schemes over plain
// HLE of the same lock, across sizes and mixes, 8 threads.
func Figure10(r *Runner, sc Scale) []Table {
	nt := sc.maxThreads()
	mixes := []Mix{MixLookupOnly, MixModerate, MixExtensive}
	var cfgs []DSConfig
	for _, mix := range mixes {
		for _, size := range sc.Sizes {
			for _, lock := range benchLocks {
				cfgs = append(cfgs, sc.point(size, mix, SchemeHLE, lock, nt))
				for _, s := range figure10Schemes {
					cfgs = append(cfgs, sc.point(size, mix, s, lock, nt))
				}
			}
		}
	}
	r.RunAll(cfgs)

	var tables []Table
	for _, lock := range benchLocks {
		for _, mix := range mixes {
			t := Table{
				Title: fmt.Sprintf("Figure 10: speedup vs plain HLE, %d threads, %s — %s lock",
					nt, mix.Name(), lock),
				Columns: []string{"size", "hle-retries", "hle-scm", "opt-slr", "slr-scm"},
			}
			for _, size := range sc.Sizes {
				base := r.Run(sc.point(size, mix, SchemeHLE, lock, nt))
				row := []string{I(size)}
				for _, s := range figure10Schemes {
					res := r.Run(sc.point(size, mix, s, lock, nt))
					row = append(row, F2(ratio(res.Throughput(), base.Throughput())))
				}
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}
	return tables
}

// HashTableComparison runs the §7.1 hash-table benchmark (the paper reports
// it is comparable to the short-transaction end of the tree spectrum).
func HashTableComparison(r *Runner, sc Scale) []Table {
	nt := sc.maxThreads()
	size := 4096
	var cfgs []DSConfig
	for _, lock := range benchLocks {
		for _, s := range AllSchemes {
			cfgs = append(cfgs, DSConfig{
				Structure: StructHash, Threads: nt, Size: size, Mix: MixModerate,
				Scheme: s, Lock: lock, BudgetCycles: sc.Budget,
				Seed: sc.Seed, Quantum: sc.Quantum,
			})
		}
	}
	res := r.RunAll(cfgs)

	var tables []Table
	for i, lock := range benchLocks {
		t := Table{
			Title:   fmt.Sprintf("Hash table (size %d, 20%% updates, %d threads): speedup vs standard %s lock", size, nt, lock),
			Columns: append([]string{"scheme"}, "speedup"),
		}
		// This lock's row of results, in AllSchemes order: standard first.
		row := res[i*len(AllSchemes) : (i+1)*len(AllSchemes)]
		for j, s := range AllSchemes[1:] {
			t.AddRow(string(s), F2(ratio(row[j+1].Throughput(), row[0].Throughput())))
		}
		tables = append(tables, t)
	}
	return tables
}

// schemeCols returns the scheme names as column headers.
func schemeCols() []string {
	out := make([]string, len(AllSchemes))
	for i, s := range AllSchemes {
		out[i] = string(s)
	}
	return out
}

// ratio guards against division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
