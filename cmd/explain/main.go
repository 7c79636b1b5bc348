// Command explain answers "where did the cycles go" between two elision
// policies on the pinned lemming workload, using the flight recorder's
// per-chain cycle accounting: it runs both sides over a seed spread, folds
// every run's flight_* analytics through the campaign rollup, and attributes
// the throughput gap to named cycle buckets (wasted speculation by abort
// class, lock wait/dwell, forfeit traffic, commit time, slack).
//
//	explain                                   # tuned adaptive-slr vs opt-slr
//	explain -a adaptive-hle:8/0 -b hle        # any two scheme[:acfg] specs
//	explain -json -                           # elision-explain/v1 document
//	explain -chain t3#17                      # one chain's full chronicle
//	explain -chain t3#17 -perfetto chain.json # ... plus a Perfetto slice stack
//
// Output is byte-deterministic at any -j: the fleet only changes how fast
// the campaign finishes, never what it measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"elision/internal/core"
	"elision/internal/fleet"
	"elision/internal/harness"
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
	"elision/internal/obs/rollup"
	"elision/internal/tuner"
)

// SchemaVersion identifies the JSON layout; CI jq-gates it.
const SchemaVersion = "elision-explain/v1"

// DefaultTunedSpec is the cmd/tune smoke winner on the lemming workload:
// the adaptive-slr policy the walkthrough in EXPERIMENTS.md explains.
const DefaultTunedSpec = "adaptive-slr:0/2,0/1,5/5,12/8"

// Side is one run spec's measured half of the comparison.
type Side struct {
	Spec   string `json:"spec"`
	Scheme string `json:"scheme"`
	ACfg   string `json:"acfg,omitempty"`
	// OpsPerMcycle is the throughput averaged over the seed spread;
	// CyclesPerOp is its inversion into per-op thread cycles
	// (threads * 1e6 / OpsPerMcycle).
	OpsPerMcycle float64 `json:"ops_per_mcycle"`
	CyclesPerOp  float64 `json:"cycles_per_op"`
	// Chains counts completed critical sections across the spread; spec/
	// nonspec split the commit path.
	Chains        uint64 `json:"chains"`
	SpecChains    uint64 `json:"spec_chains"`
	NonSpecChains uint64 `json:"nonspec_chains"`
	// Latency percentiles of the cycles-to-commit distribution (chain span).
	SpecP50     uint64 `json:"spec_p50"`
	SpecP99     uint64 `json:"spec_p99"`
	SpecP999    uint64 `json:"spec_p999"`
	NonSpecP50  uint64 `json:"nonspec_p50"`
	NonSpecP99  uint64 `json:"nonspec_p99"`
	NonSpecP999 uint64 `json:"nonspec_p999"`
	// MeanAttempts is the chain-length distribution's mean.
	MeanAttempts float64 `json:"mean_attempts"`
	// Buckets maps every flight accounting bucket to its per-op cycles;
	// OutsideChains is CyclesPerOp minus the buckets' sum (application think
	// time between critical sections — outside any chain by construction).
	Buckets       map[string]float64 `json:"buckets_cycles_per_op"`
	OutsideChains float64            `json:"outside_chains_cycles_per_op"`
}

// BucketDelta is one bucket's contribution to the A→B gap.
type BucketDelta struct {
	Name string `json:"name"`
	// A and B are per-op cycles; Delta is B−A (positive = B spends more
	// here); ShareOfGap is Delta over the cycles-per-op gap.
	A          float64 `json:"a"`
	B          float64 `json:"b"`
	Delta      float64 `json:"delta"`
	ShareOfGap float64 `json:"share_of_gap"`
}

// Document is the full elision-explain/v1 comparison.
type Document struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
	Cores    int    `json:"cores"`
	Budget   uint64 `json:"budget_cycles"`
	Seed     uint64 `json:"seed"`
	Seeds    int    `json:"seeds"`
	A        Side   `json:"a"`
	B        Side   `json:"b"`
	// GapCyclesPerOp is B.CyclesPerOp − A.CyclesPerOp (positive = B slower).
	GapCyclesPerOp float64       `json:"gap_cycles_per_op"`
	Deltas         []BucketDelta `json:"deltas"`
	// ExplainedCyclesPerOp sums the positive bucket deltas — the cycles the
	// named buckets attribute to B's slowdown; ExplainedFraction is that
	// over the gap (≥ 1 means the buckets account for the whole gap).
	ExplainedCyclesPerOp float64 `json:"explained_cycles_per_op"`
	ExplainedFraction    float64 `json:"explained_fraction"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseSpec splits "scheme[:acfg]" and validates both halves.
func parseSpec(spec string) (harness.SchemeID, string, error) {
	scheme, acfg, _ := strings.Cut(spec, ":")
	if !slices.Contains(core.SchemeNames(), scheme) {
		return "", "", fmt.Errorf("unknown scheme %q in spec %q", scheme, spec)
	}
	if acfg != "" {
		if !strings.HasPrefix(scheme, "adaptive-") {
			return "", "", fmt.Errorf("spec %q: only the adaptive family takes an :acfg", spec)
		}
		if _, err := core.ParseAdaptiveConfig(acfg); err != nil {
			return "", "", fmt.Errorf("spec %q: %w", spec, err)
		}
	}
	return harness.SchemeID(scheme), acfg, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	aSpec := fs.String("a", DefaultTunedSpec, "side A run spec, scheme[:acfg] (default: the cmd/tune smoke winner)")
	bSpec := fs.String("b", "opt-slr", "side B run spec, scheme[:acfg]")
	budget := fs.Uint64("budget", 120_000, "virtual-cycle budget per thread")
	seeds := fs.Int("seeds", 3, "workload seeds each side averages over")
	seed := fs.Uint64("seed", 0, "first workload seed (0 = the lemming workload's)")
	jsonOut := fs.String("json", "", "write the elision-explain/v1 document to this file ('-' = stdout, suppressing the table)")
	chainID := fs.String("chain", "", "print one chain's chronicle instead of the comparison (e.g. t3#17)")
	side := fs.String("side", "a", "which side the -chain id names: a|b")
	perfetto := fs.String("perfetto", "", "with -chain, also write the chain as Perfetto trace-event JSON here")
	j := fs.Int("j", 0, "parallel fleet workers (0 = all host CPUs); never affects results")
	shards := fs.Int("shards", 0, "fleet work-stealing shards (0 = one per worker)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("explain: unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	fc, err := fleet.Flags(*j, *shards)
	if err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("explain: -seeds must be >= 1 (got %d)", *seeds)
	}
	if *budget == 0 {
		return fmt.Errorf("explain: -budget must be > 0")
	}

	wl := tuner.LemmingWorkload()
	wl.BudgetCycles = *budget
	if *seed != 0 {
		wl.Seed = *seed
	}

	schemeA, acfgA, err := parseSpec(*aSpec)
	if err != nil {
		return fmt.Errorf("explain: -a: %w", err)
	}
	schemeB, acfgB, err := parseSpec(*bSpec)
	if err != nil {
		return fmt.Errorf("explain: -b: %w", err)
	}

	if *chainID != "" {
		scheme, acfg, spec := schemeA, acfgA, *aSpec
		switch *side {
		case "a":
		case "b":
			scheme, acfg, spec = schemeB, acfgB, *bSpec
		default:
			return fmt.Errorf("explain: -side must be a|b (got %q)", *side)
		}
		cfg := wl
		cfg.Scheme, cfg.ACfg = scheme, acfg
		return chronicle(stdout, cfg, spec, *chainID, *perfetto)
	}

	r := harness.NewRunner()
	r.Fleet = fc
	r.Flight = true

	doc := Document{
		Schema:   SchemaVersion,
		Workload: fmt.Sprintf("%s size=%d %s lock=%s", wl.Structure, wl.Size, wl.Mix.Name(), wl.Lock),
		Threads:  wl.Threads,
		Cores:    wl.Cores,
		Budget:   wl.BudgetCycles,
		Seed:     wl.Seed,
		Seeds:    *seeds,
	}
	doc.A, err = measureSide(r, wl, *aSpec, schemeA, acfgA, *seeds)
	if err != nil {
		return fmt.Errorf("explain: -a: %w", err)
	}
	doc.B, err = measureSide(r, wl, *bSpec, schemeB, acfgB, *seeds)
	if err != nil {
		return fmt.Errorf("explain: -b: %w", err)
	}
	doc.diff()

	if *jsonOut != "-" {
		writeTable(stdout, doc)
	}
	if *jsonOut != "" {
		w := stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	return nil
}

// measureSide runs one spec over the seed spread with flight recorders
// attached and distills the folded campaign into a Side. The fold is
// order-independent and every counter is an exact integer sum, so the Side
// is byte-identical at any worker count.
func measureSide(r *harness.Runner, wl harness.DSConfig, spec string, scheme harness.SchemeID, acfg string, seeds int) (Side, error) {
	cfgs := make([]harness.DSConfig, seeds)
	for s := range cfgs {
		cfgs[s] = wl
		cfgs[s].Scheme, cfgs[s].ACfg = scheme, acfg
		cfgs[s].Seed += uint64(s)
	}
	ru := rollup.New()
	results := r.RunAllRollup(cfgs, ru)

	var ops float64
	for _, res := range results {
		ops += res.Throughput()
	}
	ops /= float64(seeds)
	if ops == 0 {
		return Side{}, fmt.Errorf("spec %q completed no operations", spec)
	}

	reg := ru.Registry()
	base := obs.L("scheme", string(scheme), "lock", string(wl.Lock))
	side := Side{
		Spec:          spec,
		Scheme:        string(scheme),
		ACfg:          acfg,
		OpsPerMcycle:  ops,
		CyclesPerOp:   float64(wl.Threads) * 1e6 / ops,
		SpecChains:    reg.Counter(flight.MetricChains, base.With("path", "spec")).Value(),
		NonSpecChains: reg.Counter(flight.MetricChains, base.With("path", "nonspec")).Value(),
		Buckets:       map[string]float64{},
	}
	side.Chains = side.SpecChains + side.NonSpecChains
	if side.Chains == 0 {
		return Side{}, fmt.Errorf("spec %q recorded no chains (flight feed missing?)", spec)
	}
	hs := reg.Histogram(flight.MetricChainCycles, base.With("path", "spec"))
	hn := reg.Histogram(flight.MetricChainCycles, base.With("path", "nonspec"))
	side.SpecP50, side.SpecP99, side.SpecP999 = hs.Quantile(0.50), hs.Quantile(0.99), hs.Quantile(0.999)
	side.NonSpecP50, side.NonSpecP99, side.NonSpecP999 = hn.Quantile(0.50), hn.Quantile(0.99), hn.Quantile(0.999)
	side.MeanAttempts = reg.Histogram(flight.MetricChainAttempts, base).Mean()

	var inChains float64
	for _, name := range flight.BucketNames() {
		cyc := reg.Counter(flight.MetricCycles, base.With("bucket", name)).Value()
		perOp := float64(cyc) / float64(side.Chains)
		side.Buckets[name] = perOp
		inChains += perOp
	}
	side.OutsideChains = side.CyclesPerOp - inChains
	return side, nil
}

// diff fills the document's attribution: per-bucket deltas in canonical
// order plus the outside-chains remainder, and the explained summary.
func (d *Document) diff() {
	d.GapCyclesPerOp = d.B.CyclesPerOp - d.A.CyclesPerOp
	names := append(flight.BucketNames(), "outside-chains")
	val := func(s Side, name string) float64 {
		if name == "outside-chains" {
			return s.OutsideChains
		}
		return s.Buckets[name]
	}
	for _, name := range names {
		a, b := val(d.A, name), val(d.B, name)
		bd := BucketDelta{Name: name, A: a, B: b, Delta: b - a}
		if d.GapCyclesPerOp != 0 {
			bd.ShareOfGap = bd.Delta / d.GapCyclesPerOp
		}
		d.Deltas = append(d.Deltas, bd)
		if name != "outside-chains" && bd.Delta > 0 {
			d.ExplainedCyclesPerOp += bd.Delta
		}
	}
	if d.GapCyclesPerOp != 0 {
		d.ExplainedFraction = d.ExplainedCyclesPerOp / d.GapCyclesPerOp
	}
}

// writeTable renders the human-readable comparison.
func writeTable(w io.Writer, d Document) {
	fmt.Fprintf(w, "explain — %s, %d threads / %d cores, budget %d, seeds %d (from %d)\n\n",
		d.Workload, d.Threads, d.Cores, d.Budget, d.Seeds, d.Seed)
	for _, s := range []struct {
		tag  string
		side Side
	}{{"A", d.A}, {"B", d.B}} {
		fmt.Fprintf(w, "%s %-28s %8.2f ops/Mcycle  %9.1f cycles/op  %d chains (%.1f%% spec), %.2f attempts/chain\n",
			s.tag, s.side.Spec, s.side.OpsPerMcycle, s.side.CyclesPerOp,
			s.side.Chains, 100*float64(s.side.SpecChains)/float64(s.side.Chains), s.side.MeanAttempts)
		fmt.Fprintf(w, "  cycles-to-commit p50/p99/p999: spec %d/%d/%d  nonspec %d/%d/%d\n",
			s.side.SpecP50, s.side.SpecP99, s.side.SpecP999,
			s.side.NonSpecP50, s.side.NonSpecP99, s.side.NonSpecP999)
	}
	fmt.Fprintf(w, "\ngap: %+.1f cycles/op (B relative to A)\n\n", d.GapCyclesPerOp)
	fmt.Fprintf(w, "%-16s %12s %12s %12s %9s\n", "bucket", "A cyc/op", "B cyc/op", "delta", "share")
	for _, bd := range d.Deltas {
		if bd.A == 0 && bd.B == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s %12.1f %12.1f %+12.1f %8.1f%%\n",
			bd.Name, bd.A, bd.B, bd.Delta, 100*bd.ShareOfGap)
	}
	fmt.Fprintf(w, "\nexplained: %.1f cycles/op across the named buckets = %.1f%% of the gap\n",
		d.ExplainedCyclesPerOp, 100*d.ExplainedFraction)
}

// chronicle runs one side's first-seed point with full raw-chain retention
// and prints the named chain's history (optionally exporting it as a
// Perfetto slice stack).
func chronicle(stdout io.Writer, cfg harness.DSConfig, spec, id, perfetto string) error {
	_, _, _, _, rec := harness.FlightRun(cfg, causality.Config{}, flight.Config{})
	c := rec.Chain(id)
	if c == nil {
		return fmt.Errorf("explain: chain %q not found in %s's run (sealed %d chains, retained %d)",
			id, spec, rec.Sealed(), len(rec.Chains()))
	}
	fmt.Fprintf(stdout, "spec %s, seed %d:\n", spec, cfg.Seed)
	rec.WriteChronicle(stdout, c)
	if perfetto != "" {
		f, err := os.Create(perfetto)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(flight.ChromeTraceEvents(c)); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
