package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"elision/internal/fleet"
	"elision/internal/harness"
	"elision/internal/obs/causality"
	"elision/internal/obs/rollup"
)

// workers is the fleet width of every campaign: the benchmark host's two
// CPUs. One worker measures worse: a single goroutine's throughput swings
// more with host scheduling than two sharing the machine.
const workers = 2

// A run builds its pool and cold-fills its fill keys at least setupReps
// times, and keeps repeating (up to maxSetupReps) while under setupBudget,
// so a cheap set-up is still a median over enough repetitions to be steady.
// setup_s is the median.
const (
	setupReps    = 5
	maxSetupReps = 201
	setupBudget  = 2 * time.Second
)

// campaign is one run's simulator pool: a FillCache shared by one pooled
// Instance per fleet worker, as harness.Runner builds it.
type campaign struct {
	w     workload
	js    *jobStream
	fills *harness.FillCache
	pool  []*harness.Instance
	// coldFill is the host time the set-up spent cold-filling fill keys.
	coldFill time.Duration
}

// newCampaign pays everything the run needs before its first timed job:
// pool construction plus the cold prefill of every fill key the run uses.
// diagnose-panel builds its instances per point inside the program, so its
// set-up is one cold fill of its fill key and a warm-up panel.
func newCampaign(w workload, seed uint64) *campaign {
	c := &campaign{w: w, js: newJobStream(w, seed), fills: harness.NewFillCache()}
	if w.grid == nil {
		warm := c.js.panelScale(-1)
		fill := warm.Section4Config(harness.SchemeHLE, harness.LockMCS)
		fill.BudgetCycles = 1
		t0 := time.Now()
		harness.NewInstance(nil).Run(fill)
		c.coldFill = time.Since(t0)
		runPanel(warm, fleet.Config{Workers: workers})
		return c
	}
	for i := 0; i < workers; i++ {
		c.pool = append(c.pool, harness.NewInstance(c.fills))
	}
	fcfgs := c.js.fillConfigs()
	t0 := time.Now()
	fleet.Run(fleet.Config{Workers: workers}, len(fcfgs), func(wk, i int) {
		c.pool[wk].Run(fcfgs[i])
	})
	c.coldFill = time.Since(t0)
	// Size every pooled memory for the run's largest point, so no timed job
	// pays a first-touch allocation.
	big := fcfgs[0]
	for _, f := range fcfgs[1:] {
		if f.Size > big.Size {
			big = f
		}
	}
	for _, in := range c.pool {
		in.Run(big)
	}
	return c
}

// outcome is one job's observable result: its fingerprint and the totals
// the metrics need.
type outcome struct {
	fp          uint64
	err         error
	sims        int
	cycles, ops uint64
	// panel holds a diagnose-panel job's raw output until settle
	// fingerprints it, outside the measured window.
	panel *panelResult
}

// runDS executes one data-structure point on a pooled instance, turning a
// panic into a failed outcome.
func runDS(in *harness.Instance, cfg harness.DSConfig) (o outcome) {
	o.sims = 1
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("panic: %v", r)
		}
	}()
	res := in.Run(cfg)
	return outcome{fp: fingerprint(res), sims: 1, cycles: res.Cycles, ops: res.Stats.Ops}
}

// panelResult is one diagnose-panel job's output, fingerprinted after the
// round's timing ends.
type panelResult struct {
	d  harness.Diagnosis
	ru *rollup.Campaign
}

// runPanel runs cmd/diagnose's observed panel once.
func runPanel(sc harness.Scale, fc fleet.Config) panelResult {
	ru := rollup.New()
	d := harness.DiagnoseRollup(sc, harness.DefaultDiagnosePanel(), causality.Config{}, fc, ru)
	return panelResult{d: d, ru: ru}
}

// panelOutcome fingerprints a panel and totals its cycles and sections.
func panelOutcome(pr panelResult) outcome {
	o := outcome{fp: panelFingerprint(pr), sims: len(pr.d.Runs)}
	for _, k := range pr.ru.Keys() {
		card := pr.ru.Cell(k)
		o.cycles += card.TotalCycles
		o.ops += card.Ops
	}
	return o
}

// runRound executes one round on the fleet and returns per-job outcomes.
func (c *campaign) runRound(jobs []job, fc fleet.Config) []outcome {
	out := make([]outcome, len(jobs))
	if c.w.grid == nil {
		// A panic inside the panel's own fleet workers cannot be recovered
		// here; it ends the run without a result.
		for i, j := range jobs {
			pr := runPanel(j.sc, fc)
			out[i] = outcome{panel: &pr}
		}
		return out
	}
	fleet.Run(fc, len(jobs), func(wk, i int) {
		out[i] = runDS(c.pool[wk], jobs[i].cfg)
	})
	return out
}

// settle fingerprints the panels a round returned.
func settle(outs []outcome) {
	for i := range outs {
		if outs[i].panel != nil {
			outs[i] = panelOutcome(*outs[i].panel)
		}
	}
}

// segmentTarget is the least wall time of one timed segment. The timed
// phase is cut into segments of whole rounds and the timing metrics are
// medians over segments, so a burst of host interference moves one
// segment, not the result.
const segmentTarget = time.Second

// segment is a run of whole rounds, with the host's reference rate around
// it: the mean of the reference samples taken just before and just after.
type segment struct {
	sims    int
	cycles  uint64
	wall    time.Duration
	jobHost time.Duration
	ref     float64
}

// simsPerS is the segment's simulations per wall second on the nominal host.
func (s segment) simsPerS() float64 {
	return float64(s.sims) / s.wall.Seconds() * refNominal / s.ref
}

// nsPerSimCycle is the segment's job host time per simulated cycle on the
// nominal host.
func (s segment) nsPerSimCycle() float64 {
	return float64(s.jobHost.Nanoseconds()) / float64(s.cycles) * s.ref / refNominal
}

// tally is the timed phase's totals.
type tally struct {
	rounds, sims int
	cycles, ops  uint64
	wall         time.Duration // summed round wall time
	jobHost      time.Duration // summed per-job host time
	segs         []segment
	mallocs      uint64
	allocBytes   uint64
	// jobMs holds every job's host time, kept only when asked for so that
	// the untraced run's live heap holds nothing that grows with its length.
	jobMs []float64
	// kept are the rounds re-run after the timed phase: the first and the
	// last, with the fingerprints they produced.
	kept []keptRound
}

type keptRound struct {
	jobs []job
	fps  []uint64
}

// timed runs whole rounds, at least one, until the budget is spent. Only
// the fleet runs themselves are inside the measured window;
// fingerprinting, the gate and the host reference run between rounds.
func (c *campaign) timed(budget time.Duration, g *gate, h *hostRef, keepJobMs bool) tally {
	var t tally
	var ms0, ms1 runtime.MemStats
	var seg segment
	// The samples on both sides of a segment track the host's speed during
	// it better than the one after it alone (measured in README.md, Host
	// normalization).
	prevRef := h.rate()
	start := time.Now()
	for t.rounds == 0 || time.Since(start) < budget {
		jobs := c.js.round()
		// A fresh profile per round keeps the fleet's job log, and the
		// allocations it makes, the same size in every round.
		prof := fleet.NewProfile()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		outs := c.runRound(jobs, fleet.Config{Workers: workers, Profile: prof})
		wall := time.Since(t0)
		t.wall += wall
		seg.wall += wall
		runtime.ReadMemStats(&ms1)
		t.mallocs += ms1.Mallocs - ms0.Mallocs
		t.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		settle(outs)
		for _, ev := range prof.Events() {
			d := time.Duration(ev.End - ev.Start)
			t.jobHost += d
			seg.jobHost += d
			if keepJobMs {
				t.jobMs = append(t.jobMs, float64(d)/1e6)
			}
		}
		kr := keptRound{jobs: jobs, fps: make([]uint64, len(jobs))}
		for i, o := range outs {
			g.check(c.w.name, jobs[i], o, nil)
			kr.fps[i] = o.fp
			t.sims += o.sims
			t.cycles += o.cycles
			seg.sims += o.sims
			seg.cycles += o.cycles
			t.ops += o.ops
		}
		if t.rounds < 2 {
			t.kept = append(t.kept, kr)
		} else {
			t.kept[1] = kr
		}
		t.rounds++
		if seg.wall >= segmentTarget || (len(t.segs) == 0 && time.Since(start) >= budget) {
			ref := h.rate()
			seg.ref = (prevRef + ref) / 2
			prevRef = ref
			t.segs = append(t.segs, seg)
			seg = segment{}
		}
	}
	return t
}

// refMedian is the median reference rate over the timed phase.
func (t tally) refMedian() float64 {
	return t.segmentMedian(func(s segment) float64 { return s.ref })
}

// segmentMedian is the median over segments of f.
func (t tally) segmentMedian(f func(s segment) float64) float64 {
	xs := make([]float64, len(t.segs))
	for i, s := range t.segs {
		xs[i] = f(s)
	}
	return median(xs)
}

// recheck re-executes the kept rounds on the same pool after the timed
// phase: every fingerprint must repeat.
func (c *campaign) recheck(t tally, g *gate) {
	for _, kr := range t.kept {
		outs := c.runRound(kr.jobs, fleet.Config{Workers: workers})
		settle(outs)
		for i, o := range outs {
			g.check(c.w.name, kr.jobs[i], o, &kr.fps[i])
		}
	}
}

// liveHeapMB forces a collection and reports the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by nearest rank (xs is reordered).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
