// Package rollup merges per-run observability into a deterministic
// campaign-level view: the metrics registries, conflict hot-line profiles
// and abort-causality scorecards of every point a fleet executed, folded
// across workers into one speculation-health scorecard and one Prometheus
// exposition.
//
// Every fold is a commutative sum (or max, or bitmask union) keyed by
// (scheme, lock) and metric identity, and every renderer sorts by key
// before writing — so a campaign's rolled-up output is a byte-identical
// function of the set of runs, independent of worker count and completion
// order. AddRun is safe to call concurrently from fleet workers.
package rollup

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"elision/internal/obs"
	"elision/internal/obs/causality"
)

// Key identifies one scheme×lock cell of the campaign grid.
type Key struct {
	Scheme, Lock string
}

// Scorecard is the campaign-level speculation-health summary of one cell:
// pure commutative sums over the cell's runs, plus the causality-engine
// aggregates when the runs carried an attached engine.
type Scorecard struct {
	// Runs counts merged runs.
	Runs int
	// Ops counts completed critical sections; SpecOps of them committed
	// speculatively, NonSpecOps took the fallback lock.
	Ops, SpecOps, NonSpecOps uint64
	// Commits and Aborts count transactional outcomes.
	Commits, Aborts uint64
	// AbortsByCause breaks Aborts down by the htm abort cause.
	AbortsByCause map[string]uint64
	// CausalRuns counts runs that carried an abort-causality engine; the
	// remaining fields are sums over those runs only.
	CausalRuns int
	// Epochs counts closed serialization epochs; Lemmings counts runs whose
	// verdict was a lemming collapse; StrayRoots counts fallback-rooted
	// intervals below the epoch threshold.
	Epochs, Lemmings, StrayRoots int
	// EpochCycles sums cycles spent inside epochs; TotalCycles sums each
	// causal run's covered cycles.
	EpochCycles, TotalCycles uint64
	// OpsInEpochs and SpecOpsInEpochs sum the in-epoch op counts.
	OpsInEpochs, SpecOpsInEpochs uint64
}

// SpecRatio is SpecOps/Ops (0 when the cell saw no ops).
func (s Scorecard) SpecRatio() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.SpecOps) / float64(s.Ops)
}

// AbortRate is Aborts/(Aborts+Commits).
func (s Scorecard) AbortRate() float64 {
	if s.Aborts+s.Commits == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Aborts+s.Commits)
}

// SerializedFraction is EpochCycles/TotalCycles over the causal runs.
func (s Scorecard) SerializedFraction() float64 {
	if s.TotalCycles == 0 {
		return 0
	}
	return float64(s.EpochCycles) / float64(s.TotalCycles)
}

// cell is one Key's accumulating state.
type cell struct {
	card Scorecard
	hot  *obs.HotLines
}

// Campaign accumulates runs. The zero value is not usable; create with New.
type Campaign struct {
	mu    sync.Mutex
	reg   *obs.Registry
	cells map[Key]*cell
	runs  int
}

// New returns an empty campaign rollup.
func New() *Campaign {
	return &Campaign{reg: obs.NewRegistry(), cells: make(map[Key]*cell)}
}

// Runs returns the number of merged runs.
func (c *Campaign) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// Registry returns the merged campaign registry. Callers must not feed it
// concurrently with AddRun; reading (snapshots, expositions) is safe.
func (c *Campaign) Registry() *obs.Registry {
	return c.reg
}

// AddRun folds one finished run's collector into the campaign: its registry
// merges into the campaign registry, its hot lines into the run's
// (scheme, lock) cell, and — when the collector carries an attached
// causality engine — its report into the cell's scorecard. The collector's
// base labels identify the cell. Safe for concurrent use; folding is
// order-independent.
func (c *Campaign) AddRun(col *obs.Collector) {
	if col == nil {
		return
	}
	base := col.BaseLabels()
	key := Key{Scheme: base.Get("scheme"), Lock: base.Get("lock")}

	// Distill the per-cell tallies from the run registry before taking the
	// campaign lock.
	var card Scorecard
	card.Runs = 1
	for _, m := range col.Reg.Snapshot() {
		if m.Kind != "counter" {
			continue
		}
		ls := obs.ParseLabels(m.Labels)
		switch m.Name {
		case obs.MetricOps:
			card.Ops += uint64(m.Value)
			switch ls.Get("path") {
			case "spec":
				card.SpecOps += uint64(m.Value)
			case "nonspec":
				card.NonSpecOps += uint64(m.Value)
			}
		case obs.MetricCommits:
			card.Commits += uint64(m.Value)
		case obs.MetricAborts:
			if card.AbortsByCause == nil {
				card.AbortsByCause = make(map[string]uint64)
			}
			card.Aborts += uint64(m.Value)
			card.AbortsByCause[ls.Get("cause")] += uint64(m.Value)
		}
	}
	// The collector may carry several sinks (causality engine + flight
	// recorder); find the engine wherever it sits.
	var eng *causality.Engine
	for _, s := range col.Sinks() {
		if e, ok := s.(*causality.Engine); ok {
			eng = e
			break
		}
	}
	if eng != nil {
		rep := eng.Report()
		card.CausalRuns = 1
		card.Epochs = len(rep.Epochs)
		card.StrayRoots = rep.StrayRoots
		card.EpochCycles = rep.CyclesInEpochs()
		card.TotalCycles = rep.TotalCycles
		card.OpsInEpochs = rep.OpsInEpochs()
		for _, ep := range rep.Epochs {
			card.SpecOpsInEpochs += ep.SpecOps
		}
		if rep.Lemming {
			card.Lemmings = 1
		}
	}

	c.reg.Merge(col.Reg)
	c.reg.Counter("campaign_runs_total", base).Inc()

	c.mu.Lock()
	ce := c.cells[key]
	if ce == nil {
		ce = &cell{hot: obs.NewHotLines()}
		c.cells[key] = ce
	}
	ce.card.merge(card)
	c.runs++
	c.mu.Unlock()
	ce.hot.Merge(col.Hot)
}

// merge folds src into s; every field is a commutative sum.
func (s *Scorecard) merge(src Scorecard) {
	s.Runs += src.Runs
	s.Ops += src.Ops
	s.SpecOps += src.SpecOps
	s.NonSpecOps += src.NonSpecOps
	s.Commits += src.Commits
	s.Aborts += src.Aborts
	for cause, n := range src.AbortsByCause {
		if s.AbortsByCause == nil {
			s.AbortsByCause = make(map[string]uint64)
		}
		s.AbortsByCause[cause] += n
	}
	s.CausalRuns += src.CausalRuns
	s.Epochs += src.Epochs
	s.Lemmings += src.Lemmings
	s.StrayRoots += src.StrayRoots
	s.EpochCycles += src.EpochCycles
	s.TotalCycles += src.TotalCycles
	s.OpsInEpochs += src.OpsInEpochs
	s.SpecOpsInEpochs += src.SpecOpsInEpochs
}

// Keys returns the cells' keys sorted by (scheme, lock).
func (c *Campaign) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]Key, 0, len(c.cells))
	for k := range c.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Scheme != keys[j].Scheme {
			return keys[i].Scheme < keys[j].Scheme
		}
		return keys[i].Lock < keys[j].Lock
	})
	return keys
}

// Cell returns the scorecard for one key (zero value when absent).
func (c *Campaign) Cell(k Key) Scorecard {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ce := c.cells[k]; ce != nil {
		return ce.card
	}
	return Scorecard{}
}

// HotLines returns the merged hot-line profile for one key (nil when
// absent).
func (c *Campaign) HotLines(k Key) *obs.HotLines {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ce := c.cells[k]; ce != nil {
		return ce.hot
	}
	return nil
}

// WriteText renders the campaign rollup: the speculation-health scorecard,
// the per-(scheme, lock) abort-cause breakdown, and each cell's hottest
// conflict lines. Output is sorted by key — byte-identical at any worker
// count.
func (c *Campaign) WriteText(w io.Writer) {
	keys := c.Keys()
	fmt.Fprintf(w, "campaign rollup: %d run(s) over %d scheme x lock cell(s)\n", c.Runs(), len(keys))
	fmt.Fprintln(w, "speculation health:")
	fmt.Fprintf(w, "  %-10s %-10s %5s %10s %6s %10s %10s %7s %7s %6s %5s\n",
		"scheme", "lock", "runs", "ops", "spec%", "commits", "aborts", "abort%", "epochs", "ser%", "lemm")
	for _, k := range keys {
		card := c.Cell(k)
		epochs, ser, lemm := "-", "-", "-"
		if card.CausalRuns > 0 {
			epochs = fmt.Sprintf("%d", card.Epochs)
			ser = fmt.Sprintf("%.1f", 100*card.SerializedFraction())
			lemm = fmt.Sprintf("%d", card.Lemmings)
		}
		fmt.Fprintf(w, "  %-10s %-10s %5d %10d %6.1f %10d %10d %7.1f %7s %6s %5s\n",
			k.Scheme, k.Lock, card.Runs, card.Ops, 100*card.SpecRatio(),
			card.Commits, card.Aborts, 100*card.AbortRate(), epochs, ser, lemm)
	}
	fmt.Fprintln(w, "abort causes:")
	for _, k := range keys {
		card := c.Cell(k)
		causes := make([]string, 0, len(card.AbortsByCause))
		for cause := range card.AbortsByCause {
			causes = append(causes, cause)
		}
		sort.Strings(causes)
		for _, cause := range causes {
			n := card.AbortsByCause[cause]
			share := 0.0
			if card.Aborts > 0 {
				share = 100 * float64(n) / float64(card.Aborts)
			}
			fmt.Fprintf(w, "  %-10s %-10s %-10s %10d (%5.1f%%)\n", k.Scheme, k.Lock, cause, n, share)
		}
	}
	for _, k := range keys {
		hot := c.HotLines(k)
		if hot.Total() == 0 {
			continue
		}
		fmt.Fprintf(w, "hot lines (%s over %s):\n", k.Scheme, k.Lock)
		for _, lc := range hot.TopN(5) {
			fmt.Fprintf(w, "  line %-8d %8d aborts  requestors=%0#x\n", lc.Line, lc.Aborts, lc.Requestors)
		}
	}
}

// WritePrometheus renders the merged campaign registry (plus any extra
// registries, e.g. fleet self-metrics) as one Prometheus exposition.
func (c *Campaign) WritePrometheus(w io.Writer, extra ...*obs.Registry) {
	regs := append([]*obs.Registry{c.reg}, extra...)
	obs.WritePrometheus(w, regs...)
}
