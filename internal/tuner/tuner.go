// Package tuner is the offline auto-tuner for the adaptive elision family:
// a successive-halving search over the AdaptiveConfig space that runs
// candidate configs as fleet campaigns on pooled simulator instances and
// reports a tuned frontier against the paper's fixed-MAX_RETRIES schemes.
//
// Determinism boundary: the emitted Result is a pure function of the
// tuner's Config — candidate generation is seeded (SpaceSeed), rung budgets
// derive from FinalBudget and Eta, every simulated point is a bit-for-bit
// function of its DSConfig, survivors are ranked with index tie-breaks, and
// all aggregation is keyed by candidate index. Worker count, shard count,
// host scheduling and wall-clock time never reach the output, so the JSON
// marshals byte-identically at any -j. (What is host-dependent: how long
// the search takes, and nothing else.)
package tuner

import (
	"fmt"
	"math"
	"sort"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/harness"
)

// Schema identifies the Result JSON layout.
const Schema = "elision-tune/v1"

// Config parameterizes one tuning run.
type Config struct {
	// Scheme is the adaptive family member under tuning (adaptive-hle or
	// adaptive-slr).
	Scheme harness.SchemeID
	// Workload is the benchmark point template: structure, threads, size,
	// mix, lock, seed, quantum. Its BudgetCycles is ignored; rung budgets
	// derive from FinalBudget.
	Workload harness.DSConfig
	// Candidates is the initial population size (curated seeds plus seeded
	// random draws, deduplicated).
	Candidates int
	// Eta is the halving factor: each rung keeps ceil(n/Eta) survivors and
	// multiplies the budget by Eta.
	Eta int
	// SpaceSeed seeds the candidate-space sampler.
	SpaceSeed uint64
	// Seeds is the number of workload seeds each evaluation averages over
	// (Workload.Seed, +1, ...): the search optimizes mean throughput, not
	// one seed's luck.
	Seeds int
	// FinalBudget is the per-thread cycle budget of the last rung (and of
	// the baseline runs).
	FinalBudget uint64
	// Fleet fans candidate evaluations out across workers; the Result is
	// byte-identical at any worker count.
	Fleet fleet.Config
}

// withDefaults clamps cfg into the runnable envelope.
func (cfg Config) withDefaults() Config {
	if cfg.Scheme == "" {
		cfg.Scheme = harness.SchemeAdaptiveSLR
	}
	if cfg.Candidates < 1 {
		cfg.Candidates = 24
	}
	if cfg.Eta < 2 {
		cfg.Eta = 2
	}
	if cfg.Seeds < 1 {
		cfg.Seeds = 3
	}
	if cfg.FinalBudget == 0 {
		cfg.FinalBudget = 400_000
	}
	return cfg
}

// Validate rejects configs the tuner cannot honor.
func (cfg Config) Validate() error {
	c := cfg.withDefaults()
	if c.Scheme != harness.SchemeAdaptiveHLE && c.Scheme != harness.SchemeAdaptiveSLR {
		return fmt.Errorf("tuner: scheme %q is not in the adaptive family", c.Scheme)
	}
	if cfg.Candidates < 0 {
		return fmt.Errorf("tuner: candidates must be >= 1, got %d", cfg.Candidates)
	}
	if cfg.Eta == 1 || cfg.Eta < 0 {
		return fmt.Errorf("tuner: eta must be >= 2, got %d", cfg.Eta)
	}
	if cfg.Seeds < 0 {
		return fmt.Errorf("tuner: seeds must be >= 1, got %d", cfg.Seeds)
	}
	return nil
}

// CandidateResult is one candidate's evaluation at one budget.
type CandidateResult struct {
	// Index is the candidate's position in the generated population — the
	// deterministic tie-break and the key every aggregation sorts by.
	Index int `json:"index"`
	// Config is the candidate in canonical string form.
	Config string `json:"config"`
	// OpsPerMcycle is the realized throughput.
	OpsPerMcycle float64 `json:"ops_per_mcycle"`
	// SpecRatio is the fraction of operations that committed speculatively.
	SpecRatio float64 `json:"spec_ratio"`
	// ForfeitEntries / ForfeitOps are the forfeit-window activity counters.
	ForfeitEntries uint64 `json:"forfeit_entries"`
	ForfeitOps     uint64 `json:"forfeit_ops"`
	// Survived reports whether the candidate advanced past this rung.
	Survived bool `json:"survived"`
}

// Rung is one successive-halving round: every surviving candidate evaluated
// at the rung's budget.
type Rung struct {
	Rung         int               `json:"rung"`
	BudgetCycles uint64            `json:"budget_cycles"`
	Candidates   []CandidateResult `json:"candidates"`
}

// Baseline is one fixed-policy scheme evaluated at the final budget.
type Baseline struct {
	Scheme       string  `json:"scheme"`
	OpsPerMcycle float64 `json:"ops_per_mcycle"`
	SpecRatio    float64 `json:"spec_ratio"`
}

// Hypothesis quantifies the ROADMAP question the tuner exists to answer:
// does tuned adaptive elision close the SLR↔SCM gap without an aux lock?
type Hypothesis struct {
	// SLROpsPerMcycle / SCMOpsPerMcycle are the fixed-MAX_RETRIES opt-slr
	// and slr-scm baselines on the same workload.
	SLROpsPerMcycle float64 `json:"slr_ops_per_mcycle"`
	SCMOpsPerMcycle float64 `json:"scm_ops_per_mcycle"`
	// TunedOpsPerMcycle is the winner's throughput at the final budget.
	TunedOpsPerMcycle float64 `json:"tuned_ops_per_mcycle"`
	// TunedBeatsSLR: the winner outperforms fixed-MAX_RETRIES SLR.
	TunedBeatsSLR bool `json:"tuned_beats_slr"`
	// GapClosedPct is (tuned-slr)/(scm-slr) in percent, clamped to
	// [-100, 200]; 0 when the SLR↔SCM gap is non-positive (nothing to
	// close).
	GapClosedPct float64 `json:"gap_closed_pct"`
}

// Result is the tuner's machine-readable output. It contains no wall times
// or host identifiers; see the package comment for the determinism boundary.
type Result struct {
	Schema      string            `json:"schema"`
	Scheme      string            `json:"scheme"`
	Lock        string            `json:"lock"`
	Structure   string            `json:"structure"`
	Size        int               `json:"size"`
	Mix         string            `json:"mix"`
	Threads     int               `json:"threads"`
	Seed        uint64            `json:"seed"`
	Seeds       int               `json:"seeds"`
	SpaceSeed   uint64            `json:"space_seed"`
	Eta         int               `json:"eta"`
	FinalBudget uint64            `json:"final_budget_cycles"`
	Rungs       []Rung            `json:"rungs"`
	Winner      CandidateResult   `json:"winner"`
	Frontier    []CandidateResult `json:"frontier"`
	Baselines   []Baseline        `json:"baselines"`
	Hypothesis  Hypothesis        `json:"hypothesis"`
}

// LemmingWorkload is the default tuning target: the §4 lemming regime
// (red-black tree, 20% updates, MCS lock) at 256 elements on the paper's
// SMT testbed (8 threads over 4 cores) with a 5000-cycle scheduling
// quantum — the preemption-prone regime where fixed-retry policies waste
// the most speculation on aborts that were never going to commit.
func LemmingWorkload() harness.DSConfig {
	return harness.DSConfig{
		Structure: harness.StructTree, Threads: 8, Size: 256,
		Mix: harness.MixModerate, Lock: harness.LockMCS,
		Seed: 42, Cores: 4, Quantum: 5000,
	}
}

// SmokeConfig is the CI-sized search on the lemming workload: small
// population and budget, still large enough that the tuned winner beats
// fixed-MAX_RETRIES SLR (asserted in CI on the emitted JSON).
func SmokeConfig(fc fleet.Config) Config {
	return Config{
		Scheme:      harness.SchemeAdaptiveSLR,
		Workload:    LemmingWorkload(),
		Candidates:  16,
		Eta:         2,
		Seeds:       3,
		FinalBudget: 120_000,
		Fleet:       fc,
	}
}

// baselineSchemes are the fixed-policy points the frontier is measured
// against, in report order.
var baselineSchemes = []harness.SchemeID{
	harness.SchemeStandard, harness.SchemeHLE, harness.SchemeHLERetries,
	harness.SchemeOptSLR, harness.SchemeSLRSCM,
}

// tuner carries the per-run evaluation runner: one pool of simulator
// instances and one prefill cache for every rung and the baselines.
type tuner struct {
	cfg Config
	r   *harness.Runner
}

// measurement is one (scheme, acfg) point averaged over the seed spread.
type measurement struct {
	opsPerMcycle   float64
	specRatio      float64
	forfeitEntries uint64
	forfeitOps     uint64
}

// points materializes, for every (scheme, acfg) pair, one benchmark point
// per workload seed (Workload.Seed, +1, ...) at the given budget, seeds
// innermost.
func (cfg Config) points(schemes []harness.SchemeID, acfgs []string, budget uint64) []harness.DSConfig {
	pts := make([]harness.DSConfig, 0, len(schemes)*cfg.Seeds)
	for p, scheme := range schemes {
		for s := 0; s < cfg.Seeds; s++ {
			pt := cfg.Workload
			pt.Scheme, pt.ACfg = scheme, acfgs[p]
			pt.BudgetCycles = budget
			pt.SlotCycles = 0
			pt.Seed += uint64(s)
			pts = append(pts, pt)
		}
	}
	return pts
}

// measureAll evaluates every point (a scheme + adaptive config) at the
// given budget, each averaged over cfg.Seeds workload seeds, fanning the
// point×seed grid out on the runner's fleet. Results come back in input
// order, so the output is independent of worker count and completion order.
func (t *tuner) measureAll(schemes []harness.SchemeID, acfgs []string, budget uint64) []measurement {
	seeds := t.cfg.Seeds
	raw := t.r.RunAll(t.cfg.points(schemes, acfgs, budget))
	out := make([]measurement, len(schemes))
	for p := range out {
		var m measurement
		for s := 0; s < seeds; s++ {
			r := raw[p*seeds+s]
			m.opsPerMcycle += r.Throughput()
			m.specRatio += 1 - r.Stats.NonSpecFraction()
			m.forfeitEntries += r.Stats.ForfeitEntries
			m.forfeitOps += r.Stats.ForfeitOps
		}
		m.opsPerMcycle /= float64(seeds)
		m.specRatio /= float64(seeds)
		out[p] = m
	}
	return out
}

// evaluate runs every candidate at the given budget and returns results in
// candidate order (throughput and spec ratio are seed means; forfeit
// counters are seed totals).
func (t *tuner) evaluate(cands []candidate, budget uint64) []CandidateResult {
	schemes := make([]harness.SchemeID, len(cands))
	acfgs := make([]string, len(cands))
	for i, c := range cands {
		schemes[i] = t.cfg.Scheme
		acfgs[i] = c.cfg.String()
	}
	ms := t.measureAll(schemes, acfgs, budget)
	out := make([]CandidateResult, len(cands))
	for i, m := range ms {
		out[i] = CandidateResult{
			Index:          cands[i].index,
			Config:         acfgs[i],
			OpsPerMcycle:   m.opsPerMcycle,
			SpecRatio:      m.specRatio,
			ForfeitEntries: m.forfeitEntries,
			ForfeitOps:     m.forfeitOps,
		}
	}
	return out
}

// candidate pairs a config with its population index (the tie-break key).
type candidate struct {
	index int
	cfg   core.AdaptiveConfig
}

// Run executes the successive-halving search and assembles the Result.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg = cfg.withDefaults()
	t := &tuner{cfg: cfg, r: harness.NewRunner()}
	t.r.Fleet = cfg.Fleet

	pop := Candidates(cfg.Candidates, cfg.SpaceSeed)
	cands := make([]candidate, len(pop))
	for i, c := range pop {
		cands[i] = candidate{index: i, cfg: c}
	}

	// Halve down to a frontier of a few finalists, not a single survivor:
	// the last rung then ranks several configs at the full budget, and the
	// winner is the best of that pool rather than whichever candidate led
	// at the cheapest rung.
	width := 4
	if width > len(cands) {
		width = len(cands)
	}

	// Rung budgets: the last rung runs at FinalBudget; each earlier rung at
	// 1/Eta of the next, floored so even the first rung resolves ordering.
	nRungs := 1
	for n := len(cands); n > width; n = (n + cfg.Eta - 1) / cfg.Eta {
		nRungs++
	}
	budgets := make([]uint64, nRungs)
	b := cfg.FinalBudget
	for r := nRungs - 1; r >= 0; r-- {
		budgets[r] = b
		b /= uint64(cfg.Eta)
		if b < 20_000 {
			b = 20_000
		}
	}

	res := Result{
		Schema:      Schema,
		Scheme:      string(cfg.Scheme),
		Lock:        string(cfg.Workload.Lock),
		Structure:   string(cfg.Workload.Structure),
		Size:        cfg.Workload.Size,
		Mix:         cfg.Workload.Mix.Name(),
		Threads:     cfg.Workload.Threads,
		Seed:        cfg.Workload.Seed,
		Seeds:       cfg.Seeds,
		SpaceSeed:   cfg.SpaceSeed,
		Eta:         cfg.Eta,
		FinalBudget: cfg.FinalBudget,
	}

	for r := 0; r < nRungs; r++ {
		evals := t.evaluate(cands, budgets[r])
		keep := len(cands)
		if r < nRungs-1 {
			keep = (len(cands) + cfg.Eta - 1) / cfg.Eta
			if keep < width {
				keep = width
			}
		}
		// Rank by throughput, ties by candidate index: a total order that no
		// worker count or completion order can perturb.
		order := make([]int, len(evals))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ea, eb := evals[order[a]], evals[order[b]]
			if ea.OpsPerMcycle != eb.OpsPerMcycle {
				return ea.OpsPerMcycle > eb.OpsPerMcycle
			}
			return ea.Index < eb.Index
		})
		survivors := make([]candidate, 0, keep)
		for rank, oi := range order {
			if rank < keep {
				evals[oi].Survived = true
				survivors = append(survivors, cands[oi])
			}
		}
		// Report the rung in candidate order (stable across eta/keep).
		res.Rungs = append(res.Rungs, Rung{Rung: r, BudgetCycles: budgets[r], Candidates: evals})
		if r == nRungs-1 {
			// Frontier: the last rung ranked best-first.
			for _, oi := range order {
				res.Frontier = append(res.Frontier, evals[oi])
			}
			res.Winner = evals[order[0]]
		}
		cands = survivors
	}

	// Baselines at the final budget, same seed spread, same runner.
	bm := t.measureAll(baselineSchemes, make([]string, len(baselineSchemes)), cfg.FinalBudget)
	base := make([]Baseline, len(baselineSchemes))
	for i, m := range bm {
		base[i] = Baseline{
			Scheme:       string(baselineSchemes[i]),
			OpsPerMcycle: m.opsPerMcycle,
			SpecRatio:    m.specRatio,
		}
	}
	res.Baselines = base

	var slr, scm float64
	for _, b := range base {
		switch harness.SchemeID(b.Scheme) {
		case harness.SchemeOptSLR:
			slr = b.OpsPerMcycle
		case harness.SchemeSLRSCM:
			scm = b.OpsPerMcycle
		}
	}
	h := Hypothesis{
		SLROpsPerMcycle:   slr,
		SCMOpsPerMcycle:   scm,
		TunedOpsPerMcycle: res.Winner.OpsPerMcycle,
		TunedBeatsSLR:     res.Winner.OpsPerMcycle > slr,
	}
	if gap := scm - slr; gap > 0 {
		h.GapClosedPct = 100 * (res.Winner.OpsPerMcycle - slr) / gap
		h.GapClosedPct = math.Max(-100, math.Min(200, h.GapClosedPct))
	}
	res.Hypothesis = h
	return res, nil
}

// FrontierTable renders the result's frontier and baselines as one aligned
// table (the human-readable companion of the JSON).
func (r Result) FrontierTable() harness.Table {
	t := harness.Table{
		Title: fmt.Sprintf("Tuned frontier: %s over %s, %s size=%d %s, %d threads, %d cycles",
			r.Scheme, r.Lock, r.Structure, r.Size, r.Mix, r.Threads, r.FinalBudget),
		Columns: []string{"rank", "config", "ops/Mcycle", "spec", "forfeits"},
	}
	for i, c := range r.Frontier {
		t.AddRow(fmt.Sprintf("%d", i+1), c.Config,
			fmt.Sprintf("%.2f", c.OpsPerMcycle), fmt.Sprintf("%.3f", c.SpecRatio),
			fmt.Sprintf("%d", c.ForfeitOps))
	}
	for _, b := range r.Baselines {
		t.AddRow("-", b.Scheme, fmt.Sprintf("%.2f", b.OpsPerMcycle),
			fmt.Sprintf("%.3f", b.SpecRatio), "-")
	}
	return t
}
