package main

import (
	"fmt"
	"math/rand"

	"elision/internal/harness"
)

// Each workload is a campaign the simulator's users run: a grid of
// benchmark points (the workload's axes) swept in rounds. A round visits
// every grid point once, in a seed-shuffled order, with a seed-drawn cycle
// budget per job, so every job of a run is a distinct point (as in a real
// sweep, where harness.Runner memoizes repeats) while each round carries
// the same mix of work. Rounds are the unit the timed phase counts, so two
// runs differ only in how many whole rounds they complete.
type workload struct {
	name string
	// grid returns the workload's axes as points without a budget or seed;
	// nil for diagnose-panel, whose jobs are whole panels.
	grid func() []harness.DSConfig
}

// workloads lists the benchmark's workloads in the order the driver runs
// them (BENCHMARK.json says why each was chosen). Each stresses a
// different part of the simulator, so an optimisation of one part runs hot
// in one workload and idle in another.
var workloads = []workload{
	{name: "spec-read", grid: specReadGrid},
	{name: "contend-write", grid: contendWriteGrid},
	{name: "diagnose-panel"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// specReadGrid: 8-thread points on 8K- and 128K-key trees and an 8K-key
// hash table, lookup-only and 20% updates, under the three schemes that
// repair elision, over MCS and TTAS. No SMT, no observers.
func specReadGrid() []harness.DSConfig {
	type shape struct {
		s    harness.Structure
		size int
	}
	shapes := []shape{{harness.StructTree, 8192}, {harness.StructTree, 131072}, {harness.StructHash, 8192}}
	mixes := []harness.Mix{harness.MixLookupOnly, harness.MixModerate}
	schemes := []harness.SchemeID{harness.SchemeOptSLR, harness.SchemeSLRSCM, harness.SchemeHLESCM}
	lks := []harness.LockID{harness.LockMCS, harness.LockTTAS}
	var g []harness.DSConfig
	for _, sh := range shapes {
		for _, mx := range mixes {
			for _, sc := range schemes {
				for _, lk := range lks {
					g = append(g, harness.DSConfig{
						Structure: sh.s, Threads: 8, Size: sh.size, Mix: mx,
						Scheme: sc, Lock: lk, Quantum: 128,
					})
				}
			}
		}
	}
	return g
}

// contendWriteGrid: 8-thread points on 8- and 64-key trees under 100%
// updates, over every scheme that can collapse or recover, on all four
// locks; half the points run the paper's 4-core/8-thread SMT model.
func contendWriteGrid() []harness.DSConfig {
	schemes := []harness.SchemeID{harness.SchemeStandard, harness.SchemeHLE, harness.SchemeHLERetries,
		harness.SchemeHLESCM, harness.SchemeOptSLR}
	lks := []harness.LockID{harness.LockMCS, harness.LockTTAS, harness.LockTicketHLE, harness.LockCLHHLE}
	var g []harness.DSConfig
	for _, size := range []int{8, 64} {
		for _, cores := range []int{0, 4} {
			for _, sc := range schemes {
				for _, lk := range lks {
					g = append(g, harness.DSConfig{
						Structure: harness.StructTree, Threads: 8, Size: size, Mix: harness.MixExtensive,
						Scheme: sc, Lock: lk, Quantum: 128, Cores: cores,
					})
				}
			}
		}
	}
	return g
}

// job is one unit of a round: a benchmark point for the data-structure
// workloads, or one whole panel (a Scale) for diagnose-panel.
type job struct {
	round, idx int
	cfg        harness.DSConfig
	sc         harness.Scale
}

// id names a job in reports and pins.
func (j job) id() string { return fmt.Sprintf("r%d.%d", j.round, j.idx) }

// jobStream deals out a run's rounds deterministically from its seed.
type jobStream struct {
	seed uint64
	rng  *rand.Rand
	grid []harness.DSConfig
	next int
}

// distinctRounds is how many rounds are guaranteed distinct points: a job's
// budget is jobBudget plus a seed-drawn multiple of distinctRounds plus its
// round number modulo distinctRounds, so no grid point repeats a budget
// within that many rounds (far more than any run completes) and the stream
// needs no memory of past jobs.
const distinctRounds = 1024

// jobBudget is the data-structure jobs' base cycle budget per thread:
// TestScale's, the budget of the cmd tools' -quick sweeps, cmd/diagnose's
// panel (and so diagnose-panel's points) and cmd/bench. Each job adds a
// seed-drawn share of jobSpan, so budgets lie within 6% above it.
var jobBudget = harness.TestScale().Budget

const jobSpan = 16 * distinctRounds

func newJobStream(w workload, seed uint64) *jobStream {
	js := &jobStream{seed: seed, rng: rand.New(rand.NewSource(int64(seed)))}
	if w.grid != nil {
		js.grid = w.grid()
	}
	return js
}

// fillSeed is the simulation seed every job of a run shares, so jobs share
// prefill images the way a figure sweep's points do.
func (js *jobStream) fillSeed() uint64 { return js.seed*7919 + 1 }

// panelScale is the diagnose-panel scale for panel number n: the §4
// workload at TestScale, with the panel repeated over seeds.
func (js *jobStream) panelScale(n int) harness.Scale {
	sc := harness.TestScale()
	sc.Seed = js.fillSeed() + uint64(n)
	return sc
}

// round returns the next round's jobs.
func (js *jobStream) round() []job {
	r := js.next
	js.next++
	if js.grid == nil {
		return []job{{round: r, sc: js.panelScale(r)}}
	}
	order := js.rng.Perm(len(js.grid))
	jobs := make([]job, len(order))
	for i, g := range order {
		cfg := js.grid[g]
		cfg.Seed = js.fillSeed()
		cfg.BudgetCycles = jobBudget + uint64(js.rng.Int63n(jobSpan/distinctRounds))*distinctRounds + uint64(r%distinctRounds)
		jobs[i] = job{round: r, idx: i, cfg: cfg}
	}
	return jobs
}

// fillConfigs returns one tiny point per fill key the run uses: running it
// cold-fills the key into a FillCache.
func (js *jobStream) fillConfigs() []harness.DSConfig {
	type key struct {
		s       harness.Structure
		threads int
		size    int
	}
	seen := map[key]bool{}
	var out []harness.DSConfig
	for _, g := range js.grid {
		k := key{g.Structure, g.Threads, g.Size}
		if seen[k] {
			continue
		}
		seen[k] = true
		cfg := g
		cfg.Seed = js.fillSeed()
		cfg.BudgetCycles = 1
		out = append(out, cfg)
	}
	return out
}
