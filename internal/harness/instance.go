package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"elision/internal/core"
	"elision/internal/hashtable"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/obs"
	"elision/internal/rbtree"
	"elision/internal/sim"
	"elision/internal/trace"
)

// fillKey identifies one deterministic initial fill: the filled memory
// image is a pure function of the structure, its geometry (which also fixes
// the simulated-memory layout through the per-proc allocator arenas) and
// the fill seed. Every DSConfig sharing a key shares the image — scheme,
// lock, mix, budget and scheduler parameters all apply after the fill.
type fillKey struct {
	structure Structure
	threads   int
	size      int
	seed      uint64
}

// fillImage is one captured prefill: the allocated prefix of simulated
// memory right after the initial fill, before any lock or scheme state is
// allocated. Immutable once published.
type fillImage struct {
	words []int64
	brk   mem.Addr
}

// FillCache shares prefill snapshots between pooled instances: the first
// point of a fill-key pays the O(Size) cold fill and captures the
// image; every later point restores it with a copy. Safe for concurrent
// use by fleet workers: when several workers want a key nobody has filled
// yet, the first claims it and fills while the others wait for its image,
// so each key is cold-filled (and counted as a miss) exactly once.
type FillCache struct {
	mu    sync.Mutex
	snaps map[fillKey]*fillEntry
	hits  atomic.Uint64
	miss  atomic.Uint64
}

// fillEntry is one fill-key's slot. Its claimant fills the key, sets img
// and closes ready; other workers wait on ready and restore img. img stays
// nil when the claimant's fill panicked, and the key is then free to claim
// again.
type fillEntry struct {
	ready chan struct{}
	img   *fillImage
}

// NewFillCache returns an empty prefill-snapshot cache.
func NewFillCache() *FillCache {
	return &FillCache{snaps: make(map[fillKey]*fillEntry)}
}

// Stats reports how many prefetches were served from a snapshot (hits) vs
// paid in full (misses) — the bench campaign's prefill-restore hit rate.
func (fc *FillCache) Stats() (hits, misses uint64) {
	return fc.hits.Load(), fc.miss.Load()
}

// claim returns key's entry and whether the caller created it, which makes
// the caller the key's filler.
func (fc *FillCache) claim(key fillKey) (*fillEntry, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if e, ok := fc.snaps[key]; ok {
		return e, false
	}
	e := &fillEntry{ready: make(chan struct{})}
	fc.snaps[key] = e
	return e, true
}

// settle publishes the filler's image and releases the waiters. A nil img
// (the fill panicked) also frees the key for the next claimant.
func (fc *FillCache) settle(key fillKey, e *fillEntry, img *fillImage) {
	if img == nil {
		fc.mu.Lock()
		delete(fc.snaps, key)
		fc.mu.Unlock()
	}
	e.img = img
	close(e.ready)
}

// Instance is a poolable simulator: one sim.Machine plus one htm.Memory,
// reset between benchmark points instead of rebuilt, with initial fills
// restored from the shared FillCache instead of replayed. A fleet worker
// owns one Instance for the life of a campaign. Results are bit-for-bit
// those of a fresh build — asserted by the golden seed-digest tests and
// TestInstanceReuseMatchesFresh.
//
// An Instance is not safe for concurrent use; each worker needs its own.
type Instance struct {
	m     *sim.Machine
	hm    *htm.Memory
	fills *FillCache // nil disables snapshot sharing
	// builds counts full machine constructions, resets reuses — together the
	// instance's pooling efficiency, surfaced by Runner.Metrics.
	builds, resets uint64
}

// NewInstance returns an empty instance drawing prefill snapshots from
// fills (nil disables sharing; every point then pays a cold fill).
func NewInstance(fills *FillCache) *Instance {
	return &Instance{fills: fills}
}

// Run executes one benchmark point on the pooled simulator.
func (in *Instance) Run(cfg DSConfig) Result {
	return in.RunObserved(cfg, nil, nil)
}

// Counts reports how many points built the machine from scratch vs reused
// it via reset — the instance's pooling efficiency. Call only between runs
// (an Instance is single-owner).
func (in *Instance) Counts() (builds, resets uint64) {
	return in.builds, in.resets
}

// buildStructure constructs the benchmark container. Allocation order is
// deterministic, so rebuilding on a reset store recreates the exact
// addresses a prefill snapshot was captured with.
func buildStructure(hm *htm.Memory, cfg DSConfig) dataStructure {
	switch cfg.Structure {
	case StructHash:
		return hashtable.New(hm, cfg.Threads, bucketCount(cfg.Size))
	default:
		return rbtree.New(hm, cfg.Threads)
	}
}

// prefill brings the structure to its steady-state Size: from a snapshot
// copy when the FillCache holds this fill-key or another worker is filling
// it, otherwise by the cold §4 methodology (coldFill), capturing the image
// for the next point.
func (in *Instance) prefill(cfg DSConfig, ds dataStructure, domain uint64) {
	if in.fills == nil {
		coldFill(in.hm, cfg, ds, domain)
		return
	}
	key := fillKey{cfg.Structure, cfg.Threads, cfg.Size, cfg.Seed}
	for {
		e, filler := in.fills.claim(key)
		if filler {
			in.fillClaimed(key, e, cfg, ds, domain)
			return
		}
		<-e.ready
		if e.img != nil {
			in.hm.Store().Restore(e.img.words, e.img.brk)
			in.fills.hits.Add(1)
			return
		}
		// The filler panicked and freed the key: claim it again.
	}
}

// fillClaimed cold-fills a key this instance claimed and publishes the
// image, releasing the key's waiters even when the fill panics.
func (in *Instance) fillClaimed(key fillKey, e *fillEntry, cfg DSConfig, ds dataStructure, domain uint64) {
	var img *fillImage
	defer func() { in.fills.settle(key, e, img) }()
	coldFill(in.hm, cfg, ds, domain)
	words, brk := in.hm.Store().Snapshot()
	img = &fillImage{words: words, brk: brk}
	in.fills.miss.Add(1)
}

// coldFill inserts random keys from a domain of size 2*Size until the
// structure holds Size elements. A tree fills through rbtree.Fill, which
// leaves the image Insert would without descending the tree per key.
func coldFill(hm *htm.Memory, cfg DSConfig, ds dataStructure, domain uint64) {
	raw := htm.Raw{M: hm}
	insert := ds.Insert
	if t, ok := ds.(*rbtree.Tree); ok {
		insert = rbtree.NewFill(t, raw, int(domain)).Insert
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed) + 1))
	for n := 0; n < cfg.Size; {
		if insert(raw, rng.Int63n(int64(domain)), 1) {
			n++
		}
	}
}

// RunObserved executes one benchmark point with observability attached,
// reusing the instance's machine and memory via reset-instead-of-rebuild:
// col (when non-nil) receives the run's metrics, hot lines and time series,
// and tr (when non-nil) records the run's events for timelines and
// Chrome-trace export. Instrumentation only reads the simulation, so an
// observed run's virtual-time results equal the unobserved run's.
func (in *Instance) RunObserved(cfg DSConfig, col *obs.Collector, tr *trace.Tracer) Result {
	simCfg := sim.Config{Procs: cfg.Threads, Seed: cfg.Seed, Quantum: cfg.Quantum, Cores: cfg.Cores}
	memCfg := htm.Config{Words: memoryWords(cfg), AbortOnDangerousWhileUnsubscribed: cfg.HWFix}
	if in.m == nil {
		in.m = sim.MustNew(simCfg)
		in.hm = htm.NewMemory(in.m, memCfg)
		in.builds++
	} else {
		if err := in.m.Reset(simCfg); err != nil {
			panic(fmt.Sprintf("harness: %v (config %+v)", err, cfg))
		}
		in.hm.Reset(in.m, memCfg)
		in.resets++
	}
	m, hm := in.m, in.hm
	hm.SetCollector(col)
	hm.SetTracer(tr)

	ds := buildStructure(hm, cfg)
	domain := uint64(2 * cfg.Size)
	if domain == 0 {
		domain = 2
	}
	in.prefill(cfg, ds, domain)

	l := buildLock(hm, cfg.Lock, cfg.Threads)
	inner := buildScheme(hm, cfg.Scheme, l, cfg.Threads)
	if cfg.ACfg != "" {
		e, ok := inner.(*core.Engine)
		if !ok || !e.Adaptive() {
			panic(fmt.Sprintf("harness: ACfg %q set on non-adaptive scheme %s", cfg.ACfg, cfg.Scheme))
		}
		acfg, err := core.ParseAdaptiveConfig(cfg.ACfg)
		if err != nil {
			panic(fmt.Sprintf("harness: %v (config %+v)", err, cfg))
		}
		if err := e.SetConfig(acfg); err != nil {
			panic(fmt.Sprintf("harness: %v (config %+v)", err, cfg))
		}
	}
	s := core.Observe(inner, col)
	var lockLines []int
	if lr, ok := l.(locks.LineReporter); ok {
		lockLines = lr.LockLines()
	}
	col.SetLockLines(lockLines)
	hm.SetSubscriptionLines(lockLines)

	var stats core.Stats
	var slots []Slot
	if cfg.SlotCycles > 0 {
		slots = make([]Slot, cfg.BudgetCycles/cfg.SlotCycles+1)
	}
	for i := 0; i < cfg.Threads; i++ {
		m.Go(func(p *sim.Proc) {
			// The proc's accessor and op bodies are built once per run, not
			// per critical section: the bodies read the current key from
			// the loop, and every scheme hands a body this proc's Ctx.
			var key int64
			acc := htm.Accessor(htm.Ctx{P: p, M: hm})
			insert := func(htm.Ctx) { ds.Insert(acc, key, 1) }
			del := func(htm.Ctx) { ds.Delete(acc, key) }
			lookup := func(htm.Ctx) { ds.Lookup(acc, key) }
			for p.Clock() < cfg.BudgetCycles {
				r := p.RandN(100)
				key = int64(p.RandN(domain))
				var o core.Outcome
				switch {
				case int(r) < cfg.Mix.InsertPct:
					o = s.Critical(p, insert)
				case int(r) < cfg.Mix.InsertPct+cfg.Mix.DeletePct:
					o = s.Critical(p, del)
				default:
					o = s.Critical(p, lookup)
				}
				stats.Add(o)
				if cfg.SlotCycles > 0 {
					idx := p.Clock() / cfg.SlotCycles
					if idx >= uint64(len(slots)) {
						idx = uint64(len(slots)) - 1
					}
					slots[idx].Ops++
					if !o.Speculative {
						slots[idx].NonSpec++
					}
				}
			}
		})
	}
	if err := m.Run(); err != nil {
		panic(fmt.Sprintf("harness: %v (config %+v)", err, cfg))
	}
	var maxClock uint64
	for i := 0; i < cfg.Threads; i++ {
		if c := m.Proc(i).Clock(); c > maxClock {
			maxClock = c
		}
	}
	col.SetGauge("run_cycles", int64(maxClock))
	col.SetGauge("run_threads", int64(cfg.Threads))
	col.Finish(maxClock)
	return Result{Config: cfg, Stats: stats, Cycles: maxClock, Slots: slots, LockLines: lockLines}
}
