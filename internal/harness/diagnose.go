package harness

import (
	"fmt"
	"io"

	"elision/internal/fleet"
	"elision/internal/obs/causality"
	"elision/internal/obs/rollup"
)

// DiagnoseSchemaVersion identifies the Diagnosis JSON layout. Bump on any
// field rename or removal; CI smoke-checks it so downstream consumers of the
// verdict JSON notice breaking changes.
const DiagnoseSchemaVersion = 1

// DiagnosePoint is one scheme/lock combination in a diagnosis panel.
type DiagnosePoint struct {
	Scheme SchemeID
	Lock   LockID
}

// DefaultDiagnosePanel spans the paper's story: plain HLE over the three
// fair-lock shapes and TTAS (§4's lemming victims and its recoverer), the
// two software repairs (§5 opt-SLR, §6 SCM) over MCS, and the adaptive
// family (ck_elide-style budgets) over MCS.
func DefaultDiagnosePanel() []DiagnosePoint {
	return []DiagnosePoint{
		{SchemeHLE, LockMCS},
		{SchemeHLE, LockTicketHLE},
		{SchemeHLE, LockCLHHLE},
		{SchemeHLE, LockTTAS},
		{SchemeOptSLR, LockMCS},
		{SchemeHLESCM, LockMCS},
		{SchemeAdaptiveHLE, LockMCS},
		{SchemeAdaptiveSLR, LockMCS},
	}
}

// DiagnoseResult is one panel point's causality verdict, shaped for JSON
// output (cmd/diagnose -json).
type DiagnoseResult struct {
	Scheme  string `json:"scheme"`
	Lock    string `json:"lock"`
	Lemming bool   `json:"lemming"`
	Verdict string `json:"verdict"`
	// FallbackRootedEpochs counts promoted serialization epochs (every epoch
	// is rooted at a non-transactional acquire by construction); StrayRoots
	// counts fallback-rooted bursts demoted below the cascade thresholds.
	FallbackRootedEpochs int     `json:"fallback_rooted_epochs"`
	StrayRoots           int     `json:"stray_roots"`
	MeanDepth            float64 `json:"mean_depth"`
	DepthP50             int     `json:"depth_p50"`
	DepthP99             int     `json:"depth_p99"`
	EpochsPerMcycle      float64 `json:"epochs_per_mcycle"`
	SpecRatio            float64 `json:"spec_ratio"`
	InEpochSpecRatio     float64 `json:"in_epoch_spec_ratio"`
	SerializedFraction   float64 `json:"serialized_fraction"`
	ThroughputLostPct    float64 `json:"throughput_lost_pct"`
	AuxRejoinRate        float64 `json:"aux_rejoin_rate"`
	// ThroughputOpsPerMcycle is the point's realized throughput.
	ThroughputOpsPerMcycle float64           `json:"throughput_ops_per_mcycle"`
	AbortsByClass          map[string]uint64 `json:"aborts_by_class"`
	// ForfeitEntries / ForfeitOps surface the adaptive family's forfeit-window
	// activity (zero for non-adaptive schemes): windows opened by budget
	// exhaustion, and operations that skipped elision inside a window.
	ForfeitEntries uint64 `json:"forfeit_entries"`
	ForfeitOps     uint64 `json:"forfeit_ops"`
}

// Diagnosis is the full verdict document for one workload across a panel.
type Diagnosis struct {
	SchemaVersion int              `json:"schema_version"`
	Workload      string           `json:"workload"`
	Threads       int              `json:"threads"`
	BudgetCycles  uint64           `json:"budget_cycles"`
	Seed          uint64           `json:"seed"`
	Runs          []DiagnoseResult `json:"runs"`
}

// distillDiagnosis shapes one causal run's report into a DiagnoseResult.
func distillDiagnosis(cfg DSConfig, res Result, eng *causality.Engine) DiagnoseResult {
	r := eng.Report()
	return DiagnoseResult{
		Scheme:                 string(cfg.Scheme),
		Lock:                   string(cfg.Lock),
		Lemming:                r.Lemming,
		Verdict:                r.Verdict(string(cfg.Scheme), string(cfg.Lock)),
		FallbackRootedEpochs:   len(r.Epochs),
		StrayRoots:             r.StrayRoots,
		MeanDepth:              r.MeanDepth(),
		DepthP50:               r.DepthQuantile(0.50),
		DepthP99:               r.DepthQuantile(0.99),
		EpochsPerMcycle:        r.EpochsPerMcycle(),
		SpecRatio:              r.SpecRatio(),
		InEpochSpecRatio:       r.InEpochSpecRatio(),
		SerializedFraction:     r.SerializedFraction(),
		ThroughputLostPct:      r.ThroughputLostPct(),
		AuxRejoinRate:          r.AuxRejoinRate(),
		ThroughputOpsPerMcycle: res.Throughput(),
		AbortsByClass:          r.AbortsByClass,
		ForfeitEntries:         res.Stats.ForfeitEntries,
		ForfeitOps:             res.Stats.ForfeitOps,
	}
}

// DiagnoseRollup runs the panel on the scale's §4 serialization-dynamics
// workload and assembles the verdict document. The points run on a Runner
// configured by fc (zero value = one worker per host CPU), on pooled
// instances sharing one FillCache, so the panel pays one cold fill; Runs
// keeps the panel's order and length regardless of completion order. When ru is non-nil, every point's
// collector — carrying the causality engine and a flight recorder — folds
// into ru, so the panel's full observability (flight_* chain analytics
// included) is available as a rollup text report or Prometheus exposition.
// Folding is order-independent, so the rollup's artifacts are
// byte-identical at any worker count.
func DiagnoseRollup(sc Scale, panel []DiagnosePoint, ccfg causality.Config, fc fleet.Config, ru *rollup.Campaign) Diagnosis {
	ref := sc.Section4Config(SchemeHLE, LockMCS)
	d := Diagnosis{
		SchemaVersion: DiagnoseSchemaVersion,
		Workload: fmt.Sprintf("%s size=%d %s", ref.Structure, ref.Size,
			ref.Mix.Name()),
		Threads:      ref.Threads,
		BudgetCycles: ref.BudgetCycles,
		Seed:         ref.Seed,
		Runs:         make([]DiagnoseResult, len(panel)),
	}
	r := NewRunner()
	r.Fleet = fc
	r.fanOut(len(panel), func(in *Instance, i int) {
		cfg := sc.Section4Config(panel[i].Scheme, panel[i].Lock)
		res, col, eng := observe(in, cfg, ccfg, ru != nil)
		if ru != nil {
			ru.AddRun(col)
		}
		d.Runs[i] = distillDiagnosis(cfg, res, eng)
	})
	return d
}

// WriteText renders the diagnosis as an aligned human-readable table with
// one verdict line per point.
func (d Diagnosis) WriteText(w io.Writer) {
	fmt.Fprintf(w, "abort-causality diagnosis — %s, %d threads, %d cycles, seed %d\n\n",
		d.Workload, d.Threads, d.BudgetCycles, d.Seed)
	fmt.Fprintf(w, "%-12s %-12s %7s %6s %11s %11s %6s %6s\n",
		"scheme", "lock", "epochs", "stray", "depth50/99", "serialized", "spec", "aux")
	for _, r := range d.Runs {
		fmt.Fprintf(w, "%-12s %-12s %7d %6d %5d/%-5d %10.1f%% %6.3f %6.2f\n",
			r.Scheme, r.Lock, r.FallbackRootedEpochs, r.StrayRoots,
			r.DepthP50, r.DepthP99, 100*r.SerializedFraction, r.SpecRatio, r.AuxRejoinRate)
	}
	fmt.Fprintln(w)
	for _, r := range d.Runs {
		fmt.Fprintf(w, "  %s\n", r.Verdict)
	}
}
