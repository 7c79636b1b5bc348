// Command bench measures the host-side performance of the simulator on a
// fixed set of seeded workloads and writes the numbers as JSON, so the
// simulator's speed is a tracked artifact (the BENCH_simulator.json
// trajectory) rather than folklore.
//
//	go run ./cmd/bench                              # JSON to stdout
//	go run ./cmd/bench -out BENCH_simulator.json
//	go run ./cmd/bench -j 8                         # pin the campaign fleet's workers
//
// cmd/benchdiff compares a report against a baseline such as the committed
// BENCH_simulator.json.
//
// Every workload is a deterministic function of its seed: the JSON records
// the simulated cycles and transactions per run alongside the host-time
// metrics, so a perf change that accidentally perturbs simulated results is
// visible as a changed sim_cycles_per_op (and is independently caught by the
// golden seed-digest tests in internal/harness).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"elision/internal/cli"
	"elision/internal/fleet"
	"elision/internal/harness"
	"elision/internal/obs"
	"elision/internal/obs/flight"
	"elision/internal/sim"
	"elision/internal/stamp"
)

// Workload is one benchmark point: a closure run repeatedly under the
// measurement loop, reporting the simulated work done per run.
type Workload struct {
	Name string
	// Run executes the workload once and returns (simulated cycles covered,
	// simulated transaction attempts) for the run.
	Run func() (cycles, txns uint64)
}

// Measurement is the JSON record for one workload.
type Measurement struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// SimCyclesPerOp and SimTxnsPerOp are properties of the simulated run,
	// not the host: they must be bit-identical across perf-only changes.
	SimCyclesPerOp uint64  `json:"sim_cycles_per_op"`
	SimTxnsPerOp   uint64  `json:"sim_txns_per_op"`
	NsPerSimCycle  float64 `json:"ns_per_sim_cycle"`
	NsPerTxn       float64 `json:"ns_per_txn"`
}

// CampaignMetrics reports the fleet's campaign-level throughput: a fixed
// grid of benchmark points run through a pooled-instance Runner, measuring
// how fast whole simulations (and their simulated transactions) retire per
// host second, plus the prefill snapshot/restore hit rate.
type CampaignMetrics struct {
	Workers        int     `json:"workers"`
	Points         int     `json:"points"`
	WallMs         float64 `json:"wall_ms"`
	SimsPerSec     float64 `json:"sims_per_sec"`
	TxnsPerSec     float64 `json:"txns_per_sec"`
	PrefillHits    uint64  `json:"prefill_hits"`
	PrefillMisses  uint64  `json:"prefill_misses"`
	PrefillHitRate float64 `json:"prefill_hit_rate"`
	// Steals and OccupancyPct come from the fleet's self-profile: how many
	// points were claimed cross-shard, and the mean fraction of the campaign
	// wall time each worker spent inside a job.
	Steals       uint64  `json:"steals"`
	OccupancyPct float64 `json:"occupancy_pct"`
}

// FlightOverhead quantifies the flight recorder's host-side cost: the
// lemming workload run unobserved versus with a collector and flight
// recorder attached in campaign retention mode (registry aggregates only,
// no raw chains). Simulated results are bit-identical either way — only
// host time may differ — and cmd/benchdiff gates the ratio so the
// "always-on, low-overhead" claim stays a tested property.
type FlightOverhead struct {
	UnobservedNsPerOp float64 `json:"unobserved_ns_per_op"`
	FlightNsPerOp     float64 `json:"flight_ns_per_op"`
	// Ratio is flight/unobserved host time (1.0 = free).
	Ratio float64 `json:"ratio"`
}

// Report is the top-level BENCH_simulator.json document.
type Report struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	Iterations int           `json:"iterations"`
	Workloads  []Measurement `json:"workloads"`
	// Campaign is the fleet campaign-throughput measurement (CI smoke-checks
	// its fields, so it is always present).
	Campaign CampaignMetrics `json:"campaign"`
	// Flight is the flight-recorder overhead measurement (always present;
	// cmd/benchdiff gates its ratio).
	Flight FlightOverhead `json:"flight"`
}

// dsWorkload adapts a harness data-structure point.
func dsWorkload(name string, cfg harness.DSConfig) Workload {
	return Workload{Name: name, Run: func() (uint64, uint64) {
		r := harness.NewInstance(nil).Run(cfg)
		return r.Cycles, r.Stats.Attempts
	}}
}

// workloads is the fixed suite. Seeds and scales are pinned; do not change
// them without resetting the trajectory (old and new JSON would no longer
// be comparable).
func workloads() []Workload {
	base := harness.DSConfig{
		Threads: 8, Size: 128, Mix: harness.MixModerate,
		BudgetCycles: 400_000, Seed: 42, Quantum: 128,
	}
	tree := func(scheme harness.SchemeID, lock harness.LockID) harness.DSConfig {
		c := base
		c.Structure, c.Scheme, c.Lock = harness.StructTree, scheme, lock
		return c
	}
	hash := func(scheme harness.SchemeID, lock harness.LockID) harness.DSConfig {
		c := base
		c.Structure, c.Scheme, c.Lock = harness.StructHash, scheme, lock
		return c
	}
	smt := tree(harness.SchemeHLERetries, harness.LockMCS)
	smt.Cores = 4

	return []Workload{
		// The lemming point: HLE over MCS, heavy abort + fallback traffic.
		dsWorkload("rbtree-hle-mcs-8t", tree(harness.SchemeHLE, harness.LockMCS)),
		// The paper's fix: mostly-speculative execution, long read sets.
		dsWorkload("rbtree-optslr-mcs-8t", tree(harness.SchemeOptSLR, harness.LockMCS)),
		// SCM's auxiliary-lock path over short hash transactions.
		dsWorkload("hash-hlescm-ttas-8t", hash(harness.SchemeHLESCM, harness.LockTTAS)),
		// SMT model: sibling checks on every Advance.
		dsWorkload("rbtree-hleretries-mcs-8t-smt4", smt),
		// One STAMP kernel: short transactions at high contention.
		{Name: "stamp-kmeans-high-8t", Run: func() (uint64, uint64) {
			r, err := stamp.Run(stamp.Config{
				App: "kmeans-high", Scheme: "hle-scm", Lock: "ttas",
				Threads: 8, Factor: 1, Seed: 42, Quantum: 128,
			})
			if err != nil {
				panic(err)
			}
			return r.Cycles, r.Stats.Attempts
		}},
		// Raw scheduler: Advance/yield with no memory model on top.
		{Name: "sched-advance-8t", Run: func() (uint64, uint64) {
			m := sim.MustNew(sim.Config{Procs: 8, Seed: 1, Quantum: 128})
			for i := 0; i < 8; i++ {
				m.Go(func(p *sim.Proc) {
					for k := 0; k < 50_000; k++ {
						p.Advance(10)
					}
				})
			}
			if err := m.Run(); err != nil {
				panic(err)
			}
			var max uint64
			for i := 0; i < 8; i++ {
				if c := m.Proc(i).Clock(); c > max {
					max = c
				}
			}
			return max, 0
		}},
	}
}

// measure runs w iters times (after one warmup) and reports host-time and
// allocation costs per run.
func measure(w Workload, iters int) Measurement {
	cycles, txns := w.Run() // warmup; also pins the simulated-work fingerprint

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		w.Run()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	m := Measurement{
		Name:           w.Name,
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		SimCyclesPerOp: cycles,
		SimTxnsPerOp:   txns,
	}
	if cycles > 0 {
		m.NsPerSimCycle = m.NsPerOp / float64(cycles)
	}
	if txns > 0 {
		m.NsPerTxn = m.NsPerOp / float64(txns)
	}
	return m
}

// measureFlightOverhead times the lemming point (HLE over MCS, the suite's
// heaviest event-rate workload) unobserved and with the flight recorder
// attached, using the same warmup-plus-iters loop as every other
// measurement.
func measureFlightOverhead(iters int) FlightOverhead {
	cfg := harness.DSConfig{
		Structure: harness.StructTree, Threads: 8, Size: 128, Mix: harness.MixModerate,
		Scheme: harness.SchemeHLE, Lock: harness.LockMCS,
		BudgetCycles: 400_000, Seed: 42, Quantum: 128,
	}
	un := measure(Workload{Name: "flight-off", Run: func() (uint64, uint64) {
		r := harness.NewInstance(nil).Run(cfg)
		return r.Cycles, r.Stats.Attempts
	}}, iters)
	fl := measure(Workload{Name: "flight-on", Run: func() (uint64, uint64) {
		col := obs.NewCollector(string(cfg.Scheme), string(cfg.Lock), 0)
		flight.Attach(col, flight.Config{MaxChains: -1})
		r := harness.NewInstance(nil).RunObserved(cfg, col, nil)
		return r.Cycles, r.Stats.Attempts
	}}, iters)
	o := FlightOverhead{UnobservedNsPerOp: un.NsPerOp, FlightNsPerOp: fl.NsPerOp}
	if un.NsPerOp > 0 {
		o.Ratio = fl.NsPerOp / un.NsPerOp
	}
	return o
}

// campaignGrid is the pinned fleet-throughput campaign: both structures
// under four schemes and two locks at one geometry, so each structure's
// prefill key is shared by eight points (2 misses, 14 restores at any -j).
func campaignGrid() []harness.DSConfig {
	base := harness.DSConfig{
		Threads: 8, Size: 128, Mix: harness.MixModerate,
		BudgetCycles: 400_000, Seed: 42, Quantum: 128,
	}
	var grid []harness.DSConfig
	for _, st := range []harness.Structure{harness.StructTree, harness.StructHash} {
		for _, scheme := range []harness.SchemeID{harness.SchemeStandard, harness.SchemeHLE, harness.SchemeOptSLR, harness.SchemeHLESCM} {
			for _, lock := range []harness.LockID{harness.LockTTAS, harness.LockMCS} {
				c := base
				c.Structure, c.Scheme, c.Lock = st, scheme, lock
				grid = append(grid, c)
			}
		}
	}
	return grid
}

// measureCampaign runs the campaign grid on a fresh pooled-instance Runner
// and distills the fleet-level throughput numbers. prof, when non-nil,
// self-profiles the fleet (per-job bookkeeping is ~ns against ms-scale
// points, so the measured numbers stay honest).
func measureCampaign(fc fleet.Config, prof *fleet.Profile) CampaignMetrics {
	grid := campaignGrid()
	r := harness.NewRunner()
	r.Fleet = fleet.Config{Workers: fc.Workers, Profile: prof}
	start := time.Now()
	results := r.RunAll(grid)
	wall := time.Since(start)

	var txns uint64
	for _, res := range results {
		txns += res.Stats.Attempts
	}
	hits, misses := r.PrefillStats()
	m := CampaignMetrics{
		Workers:       fc.WorkerCount(len(grid)),
		Points:        len(grid),
		WallMs:        float64(wall.Nanoseconds()) / 1e6,
		PrefillHits:   hits,
		PrefillMisses: misses,
		Steals:        prof.Steals(),
	}
	if secs := wall.Seconds(); secs > 0 {
		m.SimsPerSec = float64(len(grid)) / secs
		m.TxnsPerSec = float64(txns) / secs
	}
	if total := hits + misses; total > 0 {
		m.PrefillHitRate = float64(hits) / float64(total)
	}
	if _, mean := prof.Occupancy(); mean > 0 {
		m.OccupancyPct = 100 * mean
	}
	return m
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "", "write JSON here instead of stdout")
	iters := fs.Int("iters", 5, "measured iterations per workload (after one warmup)")
	j := fs.Int("j", 0, "parallel fleet workers for the campaign measurement (0 = all host CPUs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench: unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	// A non-positive iteration count would divide by zero into Inf/NaN
	// fields that either poison the JSON trajectory or fail to marshal at
	// the very end of the run — reject it up front.
	if *iters < 1 {
		return fmt.Errorf("bench: -iters must be >= 1 (got %d)", *iters)
	}
	fc, err := fleet.Flags(*j)
	if err != nil {
		return err
	}

	rep := Report{Schema: "elision-bench/v1", GoVersion: runtime.Version(), Iterations: *iters}
	for _, w := range workloads() {
		fmt.Fprintf(os.Stderr, "bench: %s...", w.Name)
		m := measure(w, *iters)
		rep.Workloads = append(rep.Workloads, m)
		fmt.Fprintf(os.Stderr, " %.1fms/op, %.0f allocs/op\n", m.NsPerOp/1e6, m.AllocsPerOp)
	}
	fmt.Fprintf(os.Stderr, "bench: flight overhead...")
	rep.Flight = measureFlightOverhead(*iters)
	fmt.Fprintf(os.Stderr, " %.2fx (%.1fms unobserved, %.1fms with recorder)\n",
		rep.Flight.Ratio, rep.Flight.UnobservedNsPerOp/1e6, rep.Flight.FlightNsPerOp/1e6)
	fmt.Fprintf(os.Stderr, "bench: campaign (%d points)...", len(campaignGrid()))
	rep.Campaign = measureCampaign(fc, fleet.NewProfile())
	fmt.Fprintf(os.Stderr, " %.1f sims/s, %.0f txns/s, prefill hit rate %.0f%%, occupancy %.0f%%\n",
		rep.Campaign.SimsPerSec, rep.Campaign.TxnsPerSec, 100*rep.Campaign.PrefillHitRate,
		rep.Campaign.OccupancyPct)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		*out = "-"
	}
	return cli.Write(*out, stdout, func(w io.Writer) error {
		_, err := w.Write(enc)
		return err
	})
}
