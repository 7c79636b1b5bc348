package harness

import (
	"slices"
	"sync"

	"elision/internal/fleet"
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/rollup"
)

// Runner executes benchmark points with host-level parallelism (each point's
// simulation is internally sequential and deterministic) and memoizes
// results, since the figures share many points (e.g. every speedup needs its
// baseline). Campaigns are fanned out through the fleet orchestrator onto a
// pool of reusable simulator instances: each fleet worker owns one Instance
// (machine + memory reset between points, prefill restored from the shared
// FillCache), so a campaign allocates a handful of simulators regardless of
// how many points it runs. Call a Runner from one goroutine at a time; the
// parallelism is inside each fan-out.
type Runner struct {
	mu    sync.Mutex
	cache map[DSConfig]Result
	fills *FillCache
	// pool holds one reusable Instance per fleet worker, grown on demand and
	// kept across fan-outs so later figures reuse earlier snapshots.
	pool []*Instance
	// Fleet configures every fan-out: its workers (0 = one per host CPU),
	// a Progress callback after each computed point, and a Profile
	// recording the fleet's own execution (job spans, steals, occupancy).
	Fleet fleet.Config
	// Flight, when true, additionally attaches a flight recorder to every
	// RunAllRollup point, so the campaign rollup folds the flight_* chain
	// analytics (cycle partition, cycles-to-commit percentiles) alongside
	// the causality scorecards.
	Flight bool
}

// NewRunner returns a Runner using one worker per host CPU.
func NewRunner() *Runner {
	return &Runner{
		cache: make(map[DSConfig]Result),
		fills: NewFillCache(),
	}
}

// PrefillStats reports the runner's prefill snapshot cache hits and misses
// across every point computed so far.
func (r *Runner) PrefillStats() (hits, misses uint64) {
	return r.fills.Stats()
}

// Run returns the result for one point, computing it as a one-point RunAll
// if needed.
func (r *Runner) Run(cfg DSConfig) Result {
	return r.RunAll([]DSConfig{cfg})[0]
}

// RunAll computes every config, fanning out across the fleet, and returns
// results in input order. Results are independent of worker count and
// completion order: each point is a deterministic function of its config,
// and aggregation is by input index, never arrival.
func (r *Runner) RunAll(cfgs []DSConfig) []Result {
	r.mu.Lock()
	todo := slices.DeleteFunc(unique(cfgs), func(c DSConfig) bool {
		_, ok := r.cache[c]
		return ok
	})
	r.mu.Unlock()
	results := make([]Result, len(todo))
	r.fanOut(len(todo), func(in *Instance, i int) {
		results[i] = in.Run(todo[i])
	})
	return r.remember(todo, results, cfgs)
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

// RunAllRollup computes every config with full observability attached —
// a fresh collector plus abort-causality engine per point — folding each
// finished run into ru and returning results in input order. Configs are
// deduplicated within the call (one rollup run per unique point), results
// land in the memo cache (observed runs are bit-identical to unobserved
// ones), and the rollup's artifacts are byte-identical at any worker count:
// every point's collector is a deterministic function of its config, and
// Campaign.AddRun folds order-independently.
func (r *Runner) RunAllRollup(cfgs []DSConfig, ru *rollup.Campaign) []Result {
	todo := unique(cfgs)
	results := make([]Result, len(todo))
	r.fanOut(len(todo), func(in *Instance, i int) {
		res, col, _ := observe(in, todo[i], causality.Config{}, r.Flight)
		results[i] = res
		ru.AddRun(col)
	})
	return r.remember(todo, results, cfgs)
}

// fanOut runs job(in, i) for every i in [0, n) across the runner's fleet,
// handing each job the pooled instance of the worker that runs it.
func (r *Runner) fanOut(n int, job func(in *Instance, i int)) {
	if n == 0 {
		return
	}
	for len(r.pool) < r.Fleet.WorkerCount(n) {
		r.pool = append(r.pool, NewInstance(r.fills))
	}
	fleet.Run(r.Fleet, n, func(w, i int) { job(r.pool[w], i) })
}

// remember caches the computed results and returns the result of every cfg
// in input order.
func (r *Runner) remember(todo []DSConfig, results []Result, cfgs []DSConfig) []Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range todo {
		r.cache[c] = results[i]
	}
	out := make([]Result, len(cfgs))
	for i, c := range cfgs {
		out[i] = r.cache[c]
	}
	return out
}

// unique returns cfgs without repeats, in first-seen order.
func unique(cfgs []DSConfig) []DSConfig {
	var out []DSConfig
	seen := make(map[DSConfig]bool, len(cfgs))
	for _, c := range cfgs {
		if !seen[c] {
			out = append(out, c)
			seen[c] = true
		}
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
	for _, in := range r.pool {
		b, rs := in.Counts()
		builds, resets = builds+b, resets+rs
	}
	reg.Counter("harness_instance_builds_total", nil).Add(builds)
	reg.Counter("harness_instance_resets_total", nil).Add(resets)
	reg.Gauge("harness_pool_instances", nil).Set(int64(len(r.pool)))
}
