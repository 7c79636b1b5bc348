package harness

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"elision/internal/htm"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
)

// instanceTestConfigs returns three benchmark points spanning both
// structures, two schemes and two geometries — enough to exercise the reset
// paths (proc-count change, memory-size change, structure change).
func instanceTestConfigs() (a, b, c DSConfig) {
	a = DSConfig{
		Structure: StructTree, Threads: 4, Size: 64, Mix: MixModerate,
		Scheme: SchemeHLE, Lock: LockMCS,
		BudgetCycles: 60_000, Seed: 42, Quantum: 128,
	}
	b = a
	b.Structure, b.Scheme, b.Lock = StructHash, SchemeOptSLR, LockTTAS
	b.Threads, b.Size = 8, 128
	c = a
	c.Scheme, c.Seed = SchemeHLESCM, 7
	return a, b, c
}

// TestInstanceReuseMatchesFresh: running A→B→A→C on one pooled instance must
// reproduce, bit for bit, what fresh single-use simulators produce. This is
// the reset-instead-of-rebuild determinism contract.
func TestInstanceReuseMatchesFresh(t *testing.T) {
	a, b, c := instanceTestConfigs()
	seq := []DSConfig{a, b, a, c, b}

	in := NewInstance(nil)
	for i, cfg := range seq {
		pooled := in.Run(cfg)
		fresh := NewInstance(nil).Run(cfg)
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("step %d (%s/%s/%s): pooled result diverges from fresh\npooled: %+v\nfresh:  %+v",
				i, cfg.Structure, cfg.Scheme, cfg.Lock, pooled, fresh)
		}
	}
}

// TestPrefillRestoreMatchesColdFill: a point whose prefill is restored from
// a snapshot must produce exactly the result of a cold insert-replay fill.
func TestPrefillRestoreMatchesColdFill(t *testing.T) {
	a, b, _ := instanceTestConfigs()
	for _, cfg := range []DSConfig{a, b} {
		fills := NewFillCache()
		in := NewInstance(fills)

		cold := in.Run(cfg) // first run: cold fill, captures the snapshot
		if hits, misses := fills.Stats(); hits != 0 || misses != 1 {
			t.Fatalf("after first run: hits=%d misses=%d, want 0/1", hits, misses)
		}
		warm := in.Run(cfg) // second run: prefill restored by copy
		if hits, _ := fills.Stats(); hits != 1 {
			t.Fatalf("second run did not restore from snapshot")
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("%s: restored-prefill result diverges from cold fill\ncold: %+v\nwarm: %+v",
				cfg.Structure, cold, warm)
		}
	}
}

// TestFillCacheSharedAcrossSchemes: points differing only in scheme/lock
// share one fill key, so a grid of n such points pays exactly one cold fill.
func TestFillCacheSharedAcrossSchemes(t *testing.T) {
	a, _, _ := instanceTestConfigs()
	grid := []DSConfig{a, a, a, a}
	grid[1].Scheme = SchemeOptSLR
	grid[2].Lock = LockTTAS
	grid[3].Scheme, grid[3].Lock = SchemeStandard, LockTTAS

	r := NewRunner()
	r.RunAll(grid)
	hits, misses := r.PrefillStats()
	if misses != 1 || hits != uint64(len(grid)-1) {
		t.Fatalf("prefill stats = %d hits / %d misses, want %d/1", hits, misses, len(grid)-1)
	}
}

// TestFillCacheFillsEachKeyOnce: workers that want the same fill key at
// the same time share one cold fill — the first claims it, the rest wait
// for its image — so misses equal the number of distinct keys.
func TestFillCacheFillsEachKeyOnce(t *testing.T) {
	a, b, _ := instanceTestConfigs()
	fills := NewFillCache()
	cfgs := []DSConfig{a, b, a, b, a, b, a, b}
	got := make([]Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = NewInstance(fills).Run(cfg)
		}()
	}
	wg.Wait()
	if hits, misses := fills.Stats(); misses != 2 || hits != uint64(len(cfgs)-2) {
		t.Fatalf("prefill stats = %d hits / %d misses, want %d/2", hits, misses, len(cfgs)-2)
	}
	for i := 2; i < len(cfgs); i++ {
		if !reflect.DeepEqual(got[i], got[i%2]) {
			t.Fatalf("run %d diverges from run %d of the same point", i, i%2)
		}
	}
}

// panickyFill is a structure whose first insert blocks until released and
// then panics: a cold fill that fails while holding its key's claim.
type panickyFill struct{ entered, release chan struct{} }

func (f panickyFill) Insert(htm.Accessor, int64, int64) bool {
	close(f.entered)
	<-f.release
	panic("fill failed")
}
func (panickyFill) Delete(htm.Accessor, int64) bool          { return false }
func (panickyFill) Lookup(htm.Accessor, int64) (int64, bool) { return 0, false }

// TestFillCachePanickedFillReleasesWaiters: a fill that panics must free
// its key and release the workers waiting for it; one of them then fills
// the key itself.
func TestFillCachePanickedFillReleasesWaiters(t *testing.T) {
	cfg, _, _ := instanceTestConfigs()
	fills := NewFillCache()
	f := panickyFill{make(chan struct{}), make(chan struct{})}
	failed := make(chan any)
	go func() {
		defer func() { failed <- recover() }()
		(&Instance{fills: fills}).prefill(cfg, f, uint64(2*cfg.Size))
	}()
	<-f.entered // the failing fill holds the key's claim
	got := make(chan Result)
	go func() { got <- NewInstance(fills).Run(cfg) }()
	time.Sleep(10 * time.Millisecond) // let the second run start waiting
	close(f.release)
	if r := <-failed; r != "fill failed" {
		t.Fatalf("failing fill recovered %v, want its panic", r)
	}
	select {
	case res := <-got:
		if want := NewInstance(nil).Run(cfg); !reflect.DeepEqual(res, want) {
			t.Fatalf("run after a failed fill diverges from a fresh run")
		}
	case <-time.After(time.Minute):
		t.Fatal("a panicked fill stranded the run waiting for its key")
	}
	if hits, misses := fills.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("prefill stats = %d hits / %d misses, want 0/1", hits, misses)
	}
}

// TestRunnerDeterministicAcrossWorkerCounts: the same grid must produce
// identical results at -j 1 and -j 8 — the fleet's byte-determinism
// contract at the Runner level.
func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	a, b, c := instanceTestConfigs()
	var grid []DSConfig
	for _, base := range []DSConfig{a, b, c} {
		for _, lock := range []LockID{LockTTAS, LockMCS} {
			cfg := base
			cfg.Lock = lock
			grid = append(grid, cfg)
		}
	}

	serial := NewRunner()
	serial.Fleet.Workers = 1
	wide := NewRunner()
	wide.Fleet.Workers = 8
	wide.Fleet.Shards = 5 // deliberately mismatched geometry

	got1 := serial.RunAll(grid)
	got8 := wide.RunAll(grid)
	if !reflect.DeepEqual(got1, got8) {
		t.Fatalf("RunAll results differ between 1 and 8 workers")
	}
}

// TestFigureDigestWorkerInvariance: a rendered figure's seed digest must be
// byte-identical at -j 1 and -j 8 (golden_test.go pins the digests at the
// default worker count; this pins the invariance itself).
func TestFigureDigestWorkerInvariance(t *testing.T) {
	sc := TestScale()
	serial := NewRunner()
	serial.Fleet.Workers = 1
	wide := NewRunner()
	wide.Fleet.Workers = 8

	d1 := digestTables(Figure9(serial, sc))
	d8 := digestTables(Figure9(wide, sc))
	if d1 != d8 {
		t.Fatalf("figure9 digest differs by worker count: -j1 %s, -j8 %s", d1, d8)
	}
}

// TestInstanceRunAllocsIndependentOfBudget: once a pooled instance is warm,
// a run allocates the same at budget B and at 2B — its per-run setup and
// nothing per critical section. One point commits speculatively (opt-slr
// over MCS on an 8K-key tree); the other is contended, with aborts, lock
// fallbacks and parked waiters (hle over MCS on a 64-key tree).
func TestInstanceRunAllocsIndependentOfBudget(t *testing.T) {
	spec := DSConfig{
		Structure: StructTree, Threads: 8, Size: 8192, Mix: MixModerate,
		Scheme: SchemeOptSLR, Lock: LockMCS,
		BudgetCycles: 100_000, Seed: 42, Quantum: 128,
	}
	contended := spec
	contended.Size, contended.Mix, contended.Scheme = 64, MixExtensive, SchemeHLE
	for _, cfg := range []DSConfig{spec, contended} {
		in := NewInstance(NewFillCache())
		long := cfg
		long.BudgetCycles *= 2
		in.Run(long) // warm-up: cold fill, pooled memory and Tx state
		// The runtime itself allocates now and then (a GC cycle may start
		// workers), which only ever adds: take the least of three samples.
		var ops [2]uint64
		allocs := func(i int, c DSConfig) float64 {
			least := math.Inf(1)
			for k := 0; k < 3; k++ {
				least = min(least, testing.AllocsPerRun(5, func() { ops[i] = in.Run(c).Stats.Ops }))
			}
			return least
		}
		short, twice := allocs(0, cfg), allocs(1, long)
		if short != twice {
			t.Errorf("%s/%s size %d: %v allocs per run at budget %d (%d ops), %v at %d (%d ops); want equal",
				cfg.Scheme, cfg.Lock, cfg.Size, short, cfg.BudgetCycles, ops[0], twice, long.BudgetCycles, ops[1])
		}
	}
}

// TestObservedRunAllocsIndependentOfBudget: with the collector, causality
// engine and an aggregates-only flight recorder attached — the rig
// DiagnoseRollup runs every panel point under — a run allocates at most
// about 5% more at budget 2B than at B: its per-run setup and nothing per
// event. The same points run unobserved allocate exactly the same at both
// budgets.
func TestObservedRunAllocsIndependentOfBudget(t *testing.T) {
	sc := TestScale()
	for _, pt := range DefaultDiagnosePanel() {
		cfg := sc.Section4Config(pt.Scheme, pt.Lock)
		long := cfg
		long.BudgetCycles *= 2
		in := NewInstance(NewFillCache())
		in.Run(long) // warm-up: cold fill, pooled memory and Tx state
		observed := func(c DSConfig) func() {
			return func() {
				col := newCollector(c)
				causality.Attach(col, causality.Config{})
				flight.Attach(col, flight.Config{MaxChains: -1})
				in.RunObserved(c, col, nil)
			}
		}
		plain := func(c DSConfig) func() { return func() { in.Run(c) } }
		// The runtime itself allocates now and then (a GC cycle may start
		// workers), which only ever adds: take the least of three samples.
		least := func(f func()) float64 {
			n := math.Inf(1)
			for k := 0; k < 3; k++ {
				n = min(n, testing.AllocsPerRun(3, f))
			}
			return n
		}
		if short, twice := least(observed(cfg)), least(observed(long)); twice > 1.05*short {
			t.Errorf("%s/%s observed: %v allocs per run at budget %d, %v at %d; want at most 5%% more",
				pt.Scheme, pt.Lock, short, cfg.BudgetCycles, twice, long.BudgetCycles)
		}
		if short, twice := least(plain(cfg)), least(plain(long)); short != twice {
			t.Errorf("%s/%s unobserved: %v allocs per run at budget %d, %v at %d; want equal",
				pt.Scheme, pt.Lock, short, cfg.BudgetCycles, twice, long.BudgetCycles)
		}
	}
}
