package harness

import (
	"sync"

	"elision/internal/fleet"
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
	"elision/internal/obs/rollup"
)

// Runner executes benchmark points with host-level parallelism (each point's
// simulation is internally sequential and deterministic) and memoizes
// results, since the figures share many points (e.g. every speedup needs its
// baseline). Campaigns are fanned out through the fleet orchestrator onto a
// pool of reusable simulator instances: each fleet worker owns one Instance
// (machine + memory reset between points, prefill restored from the shared
// FillCache), so a campaign allocates a handful of simulators regardless of
// how many points it runs.
type Runner struct {
	mu    sync.Mutex
	cache map[DSConfig]Result
	fills *FillCache
	// pool holds one reusable Instance per fleet worker, grown on demand and
	// kept across RunAll calls so later figures reuse earlier snapshots.
	pool []*Instance
	// solo is the instance used by single-point Run calls.
	solo   *Instance
	soloMu sync.Mutex
	// Workers is the number of host goroutines for RunAll (0 = one per host
	// CPU).
	Workers int
	// Shards is the number of work-stealing shards (0 = one per worker).
	Shards int
	// Progress, when non-nil, is called after each completed point.
	Progress func(done, total int)
	// Profile, when non-nil, records the fleet's own execution (job spans,
	// steals, occupancy) across every RunAll/RunAllRollup fan-out.
	Profile *fleet.Profile
	// Flight, when true, additionally attaches a flight recorder to every
	// RunAllRollup point, so the campaign rollup folds the flight_* chain
	// analytics (cycle partition, cycles-to-commit percentiles) alongside
	// the causality scorecards.
	Flight bool
}

// NewRunner returns a Runner using one worker per host CPU.
func NewRunner() *Runner {
	fills := NewFillCache()
	return &Runner{
		cache: make(map[DSConfig]Result),
		fills: fills,
		solo:  NewInstance(fills),
	}
}

// PrefillStats reports the runner's prefill snapshot cache hits and misses
// across every point computed so far.
func (r *Runner) PrefillStats() (hits, misses uint64) {
	return r.fills.Stats()
}

// Run returns the result for one point, computing it if needed.
func (r *Runner) Run(cfg DSConfig) Result {
	r.mu.Lock()
	if res, ok := r.cache[cfg]; ok {
		r.mu.Unlock()
		return res
	}
	r.mu.Unlock()
	r.soloMu.Lock()
	res := r.solo.Run(cfg)
	r.soloMu.Unlock()
	r.mu.Lock()
	r.cache[cfg] = res
	r.mu.Unlock()
	return res
}

// RunAll computes every config, fanning out across the fleet, and returns
// results in input order. Results are independent of worker count and
// completion order: each point is a deterministic function of its config,
// and aggregation is by input index, never arrival.
func (r *Runner) RunAll(cfgs []DSConfig) []Result {
	// Deduplicate against the cache first.
	var todo []DSConfig
	r.mu.Lock()
	seen := make(map[DSConfig]bool, len(cfgs))
	for _, c := range cfgs {
		if _, ok := r.cache[c]; !ok && !seen[c] {
			todo = append(todo, c)
			seen[c] = true
		}
	}
	r.mu.Unlock()

	if len(todo) > 0 {
		fc := r.fleetConfig()
		for len(r.pool) < fc.WorkerCount(len(todo)) {
			r.pool = append(r.pool, NewInstance(r.fills))
		}
		results := make([]Result, len(todo))
		fleet.Run(fc, len(todo), func(w, i int) {
			results[i] = r.pool[w].Run(todo[i])
		})
		r.mu.Lock()
		for i, c := range todo {
			r.cache[c] = results[i]
		}
		r.mu.Unlock()
	}

	out := make([]Result, len(cfgs))
	r.mu.Lock()
	for i, c := range cfgs {
		out[i] = r.cache[c]
	}
	r.mu.Unlock()
	return out
}

// CachedConfigs returns every config the runner has computed so far, in
// unspecified order — the input for a post-hoc observed rollup pass over a
// whole reproduction (rollup folding is order-independent, so the order
// here does not matter).
func (r *Runner) CachedConfigs() []DSConfig {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DSConfig, 0, len(r.cache))
	for c := range r.cache {
		out = append(out, c)
	}
	return out
}

// fleetConfig assembles the fleet configuration from the runner's knobs.
func (r *Runner) fleetConfig() fleet.Config {
	return fleet.Config{Workers: r.Workers, Shards: r.Shards, Progress: r.Progress, Profile: r.Profile}
}

// RunAllRollup computes every config with full observability attached —
// a fresh collector plus abort-causality engine per point — folding each
// finished run into ru and returning results in input order. Configs are
// deduplicated within the call (one rollup run per unique point), results
// land in the memo cache (observed runs are bit-identical to unobserved
// ones), and the rollup's artifacts are byte-identical at any worker count:
// every point's collector is a deterministic function of its config, and
// Campaign.AddRun folds order-independently.
func (r *Runner) RunAllRollup(cfgs []DSConfig, ru *rollup.Campaign) []Result {
	var todo []DSConfig
	seen := make(map[DSConfig]bool, len(cfgs))
	for _, c := range cfgs {
		if !seen[c] {
			todo = append(todo, c)
			seen[c] = true
		}
	}

	results := make(map[DSConfig]Result, len(todo))
	if len(todo) > 0 {
		fc := r.fleetConfig()
		for len(r.pool) < fc.WorkerCount(len(todo)) {
			r.pool = append(r.pool, NewInstance(r.fills))
		}
		run := make([]Result, len(todo))
		fleet.Run(fc, len(todo), func(w, i int) {
			cfg := todo[i]
			col := obs.NewCollector(string(cfg.Scheme), string(cfg.Lock), cfg.BudgetCycles/20)
			causality.Attach(col, causality.Config{})
			if r.Flight {
				// Raw chains are not needed for the fold — the flight_*
				// registry families carry the analytics — so keep retention
				// minimal.
				flight.Attach(col, flight.Config{MaxChains: -1})
			}
			run[i] = r.pool[w].RunObserved(cfg, col, nil)
			ru.AddRun(col)
		})
		r.mu.Lock()
		for i, c := range todo {
			r.cache[c] = run[i]
			results[c] = run[i]
		}
		r.mu.Unlock()
	}

	out := make([]Result, len(cfgs))
	for i, c := range cfgs {
		out[i] = results[c]
	}
	return out
}

// Metrics records the runner's own pooling efficiency into reg under the
// harness_* namespace: prefill snapshot hits and misses, instance machine
// builds vs resets, and the pool size. Call after the campaign's fan-outs
// complete. Each fill key is cold-filled once whatever the worker count, so
// misses equal the number of distinct fill keys and hits the remaining
// points.
func (r *Runner) Metrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	hits, misses := r.fills.Stats()
	reg.Counter("harness_prefill_hits_total", nil).Add(hits)
	reg.Counter("harness_prefill_misses_total", nil).Add(misses)
	var builds, resets uint64
	r.soloMu.Lock()
	b, rs := r.solo.Counts()
	r.soloMu.Unlock()
	builds, resets = builds+b, resets+rs
	for _, in := range r.pool {
		b, rs := in.Counts()
		builds, resets = builds+b, resets+rs
	}
	reg.Counter("harness_instance_builds_total", nil).Add(builds)
	reg.Counter("harness_instance_resets_total", nil).Add(resets)
	reg.Gauge("harness_pool_instances", nil).Set(int64(len(r.pool)))
}
