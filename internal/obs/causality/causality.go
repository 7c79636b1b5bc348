// Package causality is the abort-causality engine: an online observer of
// the htm commit/abort stream that reconstructs *who aborted whom* and
// whether a burst of aborts was one cascade.
//
// Every conflict abort carries the aborter's identity, the contended cache
// line, whether the dooming access was transactional, and the aborter's
// clock at the dooming access (htm.Status / obs.Event). From these the
// engine builds the abort-causality graph — directed edges aborter-tid →
// victim-tid keyed by cache line and virtual-time window — and classifies
// each abort:
//
//	fallback-lock — the dooming access was non-transactional AND landed on
//	                a lock-protocol line: a real lock acquisition. These are
//	                the roots of lemming cascades (§4: one non-speculative
//	                acquire dooms every concurrent speculator).
//	fallback-data — non-transactional on a data line: the lock holder's
//	                plain accesses running the critical section body.
//	spec-conflict — transactional requestor: ordinary tx-vs-tx contention.
//	other         — non-conflict aborts (capacity, spurious, ...): no edge.
//
// On top of the classified stream the engine detects serialization epochs:
// maximal virtual-time intervals in which a cascade rooted at a
// non-transactional acquire keeps abort chains alive. An epoch opens at a
// fallback-lock abort, stays open while conflict aborts or main-lock
// activity arrive within GapCycles of the last, and closes at the first
// longer silence. Per-thread taint depths within an epoch give the cascade
// depth: the rooting acquirer has depth 0, its direct victims 1, a victim's
// victims 2, and so on — with a fair lock the queue "remembers" and depths
// grow; with TTAS or SLR they stay shallow.
//
// Invariants: the engine is an obs.Sink fed from the collector on the
// simulated machine's single runner goroutine, so like trace.Tracer it is
// plain unsynchronized state and its output is a deterministic function of
// the machine seed. Attaching it never perturbs the simulation (the sink
// only reads event payloads).
package causality

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"elision/internal/obs"
)

// Abort classes (the values of the class label on AbortsByClass and the
// registry's causality_aborts_total counter).
const (
	ClassFallbackLock = "fallback-lock"
	ClassFallbackData = "fallback-data"
	ClassSpecConflict = "spec-conflict"
	ClassOther        = "other"
)

// class numbers the abort classes: the index of their tallies and registry
// handles.
type class uint8

const (
	fallbackLock class = iota
	fallbackData
	specConflict
	other
	numClasses
)

// classNames names each class, in report order.
var classNames = [numClasses]string{ClassFallbackLock, ClassFallbackData, ClassSpecConflict, ClassOther}

// Registry metric names the engine maintains (base labels of the collector
// it is attached to).
const (
	// MetricEpochs counts closed serialization epochs.
	MetricEpochs = "causality_epochs_total"
	// MetricAbortsByClass counts aborts with an extra class=<class> label.
	MetricAbortsByClass = "causality_aborts_total"
	// MetricEpochDepth is the histogram of per-epoch max cascade depths.
	MetricEpochDepth = "causality_epoch_depth"
	// MetricEpochCycles is the histogram of epoch durations in cycles.
	MetricEpochCycles = "causality_epoch_cycles"
	// MetricEpochAborts is the histogram of aborts per epoch.
	MetricEpochAborts = "causality_epoch_aborts"
)

// Config parameterizes epoch detection. The zero value selects defaults.
type Config struct {
	// GapCycles is the silence (no conflict abort, no main-lock activity)
	// that closes an epoch. Default 4096 — a few fallback critical sections
	// at the simulator's cost model.
	GapCycles uint64
	// MaxEdges bounds the retained causality edges (flow-event memory);
	// classification and epoch accounting continue past the bound.
	// Default 4096; negative keeps no edges, for callers that read only
	// the report and the registry families.
	MaxEdges int
}

// Epoch and verdict thresholds.
const (
	// minAborts is the minimum aborts for a closed interval to count as an
	// epoch; smaller ones are tallied as stray roots (a lone fallback
	// acquisition that doomed one speculator is contention, not a cascade).
	minAborts = 2
	// minChained is the minimum chained roots — fallback-lock aborts whose
	// non-transactional aborter was itself a prior victim in the interval —
	// for a closed interval to count as an epoch. One real acquire dooming a
	// star of speculators who then all resume speculating (opt-SLR's
	// transient burst, chained <= 1) is not a serialization epoch; victims
	// repeatedly re-dooming as they drain through the lock queue (lemming
	// runs show roughly one chained root per abort) is.
	minChained = 2
	// chainedFraction is the minimum chained-roots-to-aborts ratio for an
	// epoch — the scale-free counterpart of minChained. Long healthy runs
	// accumulate a few chained roots by coincidence (opt-SLR at 2M cycles
	// measures <= 0.07); sustained cascades chain on most aborts (lemming
	// runs measure >= 0.7).
	chainedFraction = 0.15
	// serializedFraction is the share of covered cycles spent inside epochs
	// above which (together with >= 1 epoch and a collapsed in-epoch
	// speculation ratio) the verdict is "lemming".
	serializedFraction = 0.25
)

func (c Config) withDefaults() Config {
	if c.GapCycles == 0 {
		c.GapCycles = 4096
	}
	if c.MaxEdges == 0 {
		c.MaxEdges = 4096
	}
	return c
}

// Edge is one abort-causality graph edge: From's access at FromWhen doomed
// To's transaction, which aborted at ToWhen.
type Edge struct {
	From, To         int
	FromWhen, ToWhen uint64
	// Line is the contended cache line.
	Line int
	// Class is the abort class (fallback-lock, fallback-data, spec-conflict).
	Class string
	// Depth is To's cascade depth at the abort (0 when outside any epoch).
	Depth int
}

// EpochStat is one closed serialization epoch.
type EpochStat struct {
	// Start is the rooting non-transactional acquire's clock; End is the
	// last in-epoch activity.
	Start, End uint64
	// Aborts is the number of conflict aborts inside the epoch.
	Aborts int
	// MaxDepth is the deepest cascade chain observed inside the epoch.
	MaxDepth int
	// Ops is the number of critical sections completed inside the epoch;
	// SpecOps of them committed speculatively. Lemming epochs have
	// SpecOps ~ 0 (speculation collapsed); a TTAS-style recoverable cascade
	// keeps committing speculatively between acquisitions.
	Ops, SpecOps uint64
	// ChainedRoots counts fallback-lock aborts whose non-transactional
	// aborter was itself a prior victim — the queue-remembers links that
	// make the cascade self-sustaining (>= minChained for a counted epoch).
	ChainedRoots int
}

// Duration returns the epoch's extent in cycles.
func (e EpochStat) Duration() uint64 { return e.End - e.Start }

// Engine consumes the collector's event stream and accumulates the graph,
// the classification tallies and the epoch list. Create with Attach.
type Engine struct {
	cfg       Config
	lockLines map[int]bool

	classes [numClasses]uint64
	edges   []Edge

	commits    uint64
	ops        uint64
	specOps    uint64
	auxOps     uint64
	auxRejoins uint64

	epochs     []EpochStat
	strayRoots int

	// Open-epoch state.
	open        bool
	start       uint64
	last        uint64
	openAborts  int
	openOps     uint64
	openSpecOps uint64
	openChained int
	// depth is each thread's taint depth in the open epoch, indexed by
	// thread id and grown on demand; 0 is untainted (see abort).
	depth    []int
	maxDepth int

	totalCycles uint64
	finished    bool

	// Registry handles (nil when not attached to a collector).
	mEpochs      *obs.Counter
	mByClass     [numClasses]*obs.Counter
	mEpochDepth  *obs.Histogram
	mEpochCycles *obs.Histogram
	mEpochAborts *obs.Histogram
}

var _ obs.Sink = (*Engine)(nil)
var _ obs.TextReporter = (*Engine)(nil)

// New builds a detached engine (no registry mirroring); feed it through
// Observe, directly or as a collector's sink.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:       cfg,
		lockLines: map[int]bool{},
	}
}

// Attach builds an engine, mirrors its epoch metrics into col's registry
// under col's base labels, and attaches it to col as a sink. A nil
// collector returns a detached engine.
func Attach(col *obs.Collector, cfg Config) *Engine {
	e := New(cfg)
	if col == nil {
		return e
	}
	base := col.BaseLabels()
	e.mEpochs = col.Reg.Counter(MetricEpochs, base)
	e.mEpochDepth = col.Reg.Histogram(MetricEpochDepth, base)
	e.mEpochCycles = col.Reg.Histogram(MetricEpochCycles, base)
	e.mEpochAborts = col.Reg.Histogram(MetricEpochAborts, base)
	for cl, name := range classNames {
		e.mByClass[cl] = col.Reg.Counter(MetricAbortsByClass, base.With("class", name))
	}
	col.Attach(e)
	return e
}

// Observe implements obs.Sink.
func (e *Engine) Observe(ev *obs.Event) {
	switch ev.Kind {
	case obs.KindTxCommit:
		e.commit(ev.When, ev.Tid)
	case obs.KindTxAbort:
		e.abort(ev)
	case obs.KindLockAcquire, obs.KindLockRelease:
		// Main-lock activity keeps an open epoch alive — with a fair lock the
		// queue of pending acquirers is exactly what sustains the cascade.
		e.advance(ev.When)
		e.extend(ev.When)
	case obs.KindAuxAcquire, obs.KindAuxRelease:
		// Auxiliary (SCM) transitions don't extend epochs. Wait-phase events
		// mark intent, not ownership: the lock is not held yet, so they
		// neither advance nor extend one.
		e.advance(ev.When)
	case obs.KindOp:
		e.op(ev.When, ev.Tid, ev.Spec, ev.AuxUsed)
	case obs.KindLockLines:
		for _, l := range ev.Lines {
			e.lockLines[l] = true
		}
	case obs.KindFinish:
		// Close any open epoch and pin the covered cycles.
		e.closeEpoch()
		e.totalCycles = ev.When
		e.finished = true
	}
}

// classify maps one abort event to its class.
func (e *Engine) classify(ev *obs.Event) class {
	if ev.Cause != "conflict" || ev.ConflictTid < 0 {
		return other
	}
	if !ev.ConflictNT {
		return specConflict
	}
	if e.lockLines[ev.ConflictLine] {
		return fallbackLock
	}
	return fallbackData
}

// advance closes the open epoch if `when` lies beyond the activity gap.
func (e *Engine) advance(when uint64) {
	if e.open && when > e.last && when-e.last > e.cfg.GapCycles {
		e.closeEpoch()
	}
}

// extend marks in-epoch activity at `when`.
func (e *Engine) extend(when uint64) {
	if e.open && when > e.last {
		e.last = when
	}
}

// closeEpoch finalizes the open epoch (or stray root) and resets state.
func (e *Engine) closeEpoch() {
	if !e.open {
		return
	}
	st := EpochStat{
		Start: e.start, End: e.last, Aborts: e.openAborts,
		MaxDepth: e.maxDepth, Ops: e.openOps, SpecOps: e.openSpecOps,
		ChainedRoots: e.openChained,
	}
	if st.Aborts < minAborts || st.ChainedRoots < minChained ||
		float64(st.ChainedRoots) < chainedFraction*float64(st.Aborts) {
		e.strayRoots++
	} else {
		e.epochs = append(e.epochs, st)
		if e.mEpochs != nil {
			e.mEpochs.Inc()
			e.mEpochDepth.Observe(uint64(st.MaxDepth))
			e.mEpochCycles.Observe(st.Duration())
			e.mEpochAborts.Observe(uint64(st.Aborts))
		}
	}
	e.open = false
	e.openAborts = 0
	e.openOps = 0
	e.openSpecOps = 0
	e.openChained = 0
	e.maxDepth = 0
	clear(e.depth)
}

// taint returns tid's taint depth in the open epoch.
func (e *Engine) taint(tid int) int {
	if tid < len(e.depth) {
		return e.depth[tid]
	}
	return 0
}

// abort classifies one abort, grows the graph, and feeds epoch detection.
func (e *Engine) abort(ev *obs.Event) {
	e.advance(ev.When)
	cl := e.classify(ev)
	e.classes[cl]++
	if c := e.mByClass[cl]; c != nil {
		c.Inc()
	}
	if cl == other {
		return
	}

	// Epoch rooting and tainting. Only a real lock acquisition roots an
	// epoch, and only fallback evidence — fallback-class aborts and
	// main-lock transitions — keeps one alive: background speculative
	// contention must not sustain an epoch, or a healthy scheme's constant
	// low-grade conflicts would merge every root into one run-long "epoch".
	if !e.open && cl == fallbackLock {
		e.open = true
		e.start = ev.ConflictWhen
		if e.start == 0 || e.start > ev.When {
			e.start = ev.When
		}
		e.last = ev.When
	}
	d := 0
	if e.open {
		e.openAborts++
		if cl != specConflict {
			e.extend(ev.When)
		}
		if cl == fallbackLock && e.taint(ev.ConflictTid) > 0 {
			e.openChained++
		}
		// The aborter's taint depth persists across its own abort-then-
		// fallback transition (cleared only by a speculative commit), so a
		// prior victim's non-transactional acquire chains the cascade: the
		// queue remembers. A never-aborted root contributes depth 0.
		d = e.taint(ev.ConflictTid) + 1
		if cur := e.taint(ev.Tid); cur > d {
			d = cur
		}
		for ev.Tid >= len(e.depth) {
			e.depth = append(e.depth, 0)
		}
		e.depth[ev.Tid] = d
		if d > e.maxDepth {
			e.maxDepth = d
		}
	}
	if len(e.edges) < e.cfg.MaxEdges {
		e.edges = append(e.edges, Edge{
			From: ev.ConflictTid, To: ev.Tid,
			FromWhen: ev.ConflictWhen, ToWhen: ev.When,
			Line: ev.ConflictLine, Class: classNames[cl], Depth: d,
		})
	}
}

// commit clears the committing thread's taint: it escaped the cascade.
func (e *Engine) commit(when uint64, tid int) {
	e.advance(when)
	e.commits++
	if e.open && tid < len(e.depth) {
		e.depth[tid] = 0
	}
}

// op counts one completed critical section.
func (e *Engine) op(when uint64, tid int, spec, auxUsed bool) {
	e.advance(when)
	e.ops++
	if spec {
		e.specOps++
	}
	if auxUsed {
		e.auxOps++
		if spec {
			// The thread serialized on the auxiliary lock and still committed
			// its critical section speculatively: a successful rejoin.
			e.auxRejoins++
		}
	}
	if e.open {
		e.openOps++
		if spec {
			e.openSpecOps++
		}
	}
}

// Edges returns the retained causality edges (bounded by Config.MaxEdges;
// none when it is negative).
func (e *Engine) Edges() []Edge { return e.edges }

// Report summarizes the engine's analysis. Valid after KindFinish (an
// unfinished engine reports the state so far with any open epoch excluded).
type Report struct {
	// AbortsByClass tallies every observed abort by class.
	AbortsByClass map[string]uint64
	// Epochs is the closed serialization epochs, in time order.
	Epochs []EpochStat
	// StrayRoots counts fallback-rooted intervals below the epoch
	// thresholds.
	StrayRoots int
	// Commits / Ops / SpecOps are stream totals.
	Commits, Ops, SpecOps uint64
	// AuxOps counts ops that took the SCM serializing path; AuxRejoins those
	// that still committed speculatively.
	AuxOps, AuxRejoins uint64
	// TotalCycles is the run's covered virtual time (0 before Finish).
	TotalCycles uint64
	// Lemming is the verdict: at least one epoch, at least a quarter of
	// covered cycles spent serialized, and speculation collapsed inside the
	// epochs (in-epoch spec ratio below one half).
	Lemming bool
}

// Report builds the summary.
func (e *Engine) Report() Report {
	r := Report{
		AbortsByClass: map[string]uint64{},
		Epochs:        append([]EpochStat(nil), e.epochs...),
		StrayRoots:    e.strayRoots,
		Commits:       e.commits,
		Ops:           e.ops,
		SpecOps:       e.specOps,
		AuxOps:        e.auxOps,
		AuxRejoins:    e.auxRejoins,
		TotalCycles:   e.totalCycles,
	}
	for cl, n := range e.classes {
		if n > 0 {
			r.AbortsByClass[classNames[cl]] = n
		}
	}
	r.Lemming = len(r.Epochs) > 0 && r.SerializedFraction() >= serializedFraction &&
		r.InEpochSpecRatio() < 0.5
	return r
}

// CyclesInEpochs sums the epoch durations.
func (r Report) CyclesInEpochs() uint64 {
	var c uint64
	for _, ep := range r.Epochs {
		c += ep.Duration()
	}
	return c
}

// OpsInEpochs sums ops completed inside epochs.
func (r Report) OpsInEpochs() uint64 {
	var c uint64
	for _, ep := range r.Epochs {
		c += ep.Ops
	}
	return c
}

// InEpochSpecRatio is the share of in-epoch ops that still committed
// speculatively (1 when no ops completed inside any epoch, i.e. total
// starvation is ratio 0 only when ops exist to measure).
func (r Report) InEpochSpecRatio() float64 {
	var ops, spec uint64
	for _, ep := range r.Epochs {
		ops += ep.Ops
		spec += ep.SpecOps
	}
	if ops == 0 {
		return 1
	}
	return float64(spec) / float64(ops)
}

// SerializedFraction is the share of covered cycles spent inside epochs.
func (r Report) SerializedFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	f := float64(r.CyclesInEpochs()) / float64(r.TotalCycles)
	if f > 1 {
		f = 1
	}
	return f
}

// SpecRatio is the share of ops that committed speculatively.
func (r Report) SpecRatio() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.SpecOps) / float64(r.Ops)
}

// EpochsPerMcycle normalizes the epoch count by covered megacycles.
func (r Report) EpochsPerMcycle() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(len(r.Epochs)) / (float64(r.TotalCycles) / 1e6)
}

// MeanDepth is the mean of per-epoch max cascade depths (0 with no epochs).
func (r Report) MeanDepth() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	var s int
	for _, ep := range r.Epochs {
		s += ep.MaxDepth
	}
	return float64(s) / float64(len(r.Epochs))
}

// DepthQuantile returns the q-quantile of per-epoch max depths, computed
// exactly from the sorted list (0 with no epochs).
func (r Report) DepthQuantile(q float64) int {
	n := len(r.Epochs)
	if n == 0 {
		return 0
	}
	ds := make([]int, n)
	for i, ep := range r.Epochs {
		ds[i] = ep.MaxDepth
	}
	sort.Ints(ds)
	idx := int(q*float64(n-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return ds[idx]
}

// AuxRejoinRate is the share of serializing-path ops that still committed
// speculatively (0 when the scheme never used the auxiliary lock).
func (r Report) AuxRejoinRate() float64 {
	if r.AuxOps == 0 {
		return 0
	}
	return float64(r.AuxRejoins) / float64(r.AuxOps)
}

// ThroughputLostPct estimates the percentage of throughput the epochs cost:
// the out-of-epoch completion rate extrapolated over the serialized cycles,
// compared against what actually completed there.
func (r Report) ThroughputLostPct() float64 {
	inCycles := r.CyclesInEpochs()
	outCycles := r.TotalCycles - inCycles
	if outCycles == 0 || r.TotalCycles == 0 {
		return 0
	}
	inOps := r.OpsInEpochs()
	outOps := r.Ops - inOps
	expected := float64(outOps) / float64(outCycles) * float64(inCycles)
	lost := expected - float64(inOps)
	if lost <= 0 {
		return 0
	}
	return 100 * lost / (float64(r.Ops) + lost)
}

// Verdict renders the one-line human diagnosis for a run of scheme over
// lock: "lemming detected", "transient cascades" or "no cascade".
func (r Report) Verdict(scheme, lock string) string {
	id := scheme
	if lock != "" {
		id += " over " + lock
	}
	if id == "" {
		id = "run"
	}
	switch {
	case r.Lemming:
		return fmt.Sprintf("lemming detected: %s, %d epochs, mean depth %.1f, %.0f%% of cycles serialized",
			id, len(r.Epochs), r.MeanDepth(), 100*r.SerializedFraction())
	case len(r.Epochs) > 0:
		return fmt.Sprintf("cascades without collapse: %s, %d epochs, in-epoch speculation ratio %.2f",
			id, len(r.Epochs), r.InEpochSpecRatio())
	default:
		return fmt.Sprintf("no cascade: %s, 0 fallback-rooted epochs", id)
	}
}

// WriteText implements obs.TextReporter: the speculation-health scorecard
// the collector appends to its metrics dump.
func (e *Engine) WriteText(w io.Writer) {
	r := e.Report()
	fmt.Fprintln(w, "speculation health (abort causality):")
	fmt.Fprintf(w, "  speculation ratio    %.3f (%d/%d ops)\n", r.SpecRatio(), r.SpecOps, r.Ops)
	for _, cl := range classNames {
		if n := r.AbortsByClass[cl]; n > 0 {
			fmt.Fprintf(w, "  aborts %-14s %d\n", cl, n)
		}
	}
	fmt.Fprintf(w, "  serialization epochs %d (+%d stray roots), %.2f/Mcycle\n",
		len(r.Epochs), r.StrayRoots, r.EpochsPerMcycle())
	if len(r.Epochs) > 0 {
		fmt.Fprintf(w, "  cascade depth        p50=%d p99=%d mean=%.1f\n",
			r.DepthQuantile(0.50), r.DepthQuantile(0.99), r.MeanDepth())
		fmt.Fprintf(w, "  serialized cycles    %.1f%% of run, est. throughput lost %.1f%%\n",
			100*r.SerializedFraction(), r.ThroughputLostPct())
	}
	if r.AuxOps > 0 {
		fmt.Fprintf(w, "  aux rejoin success   %.3f (%d/%d serialized ops)\n",
			r.AuxRejoinRate(), r.AuxRejoins, r.AuxOps)
	}
	fmt.Fprintf(w, "  verdict: %s\n", r.Verdict("", ""))
}

// FlowEvents renders the causality edges as Chrome trace-event flow pairs:
// a flow start ("s") on the aborter's lane at the dooming access and a flow
// finish ("f", binding to the enclosing slice's end) on the victim's lane at
// the abort. Append to ChromeTraceEvents output via WriteChromeTraceFlows.
func (e *Engine) FlowEvents() []obs.TraceEvent {
	out := make([]obs.TraceEvent, 0, 2*len(e.edges))
	for i, ed := range e.edges {
		id := strconv.Itoa(i + 1)
		args := map[string]any{"class": ed.Class, "line": ed.Line, "depth": ed.Depth}
		out = append(out,
			obs.TraceEvent{Name: "abort-cascade", Ph: "s", Ts: ed.FromWhen, Pid: 0, Tid: ed.From,
				Cat: "causality", ID: id},
			obs.TraceEvent{Name: "abort-cascade", Ph: "f", Ts: ed.ToWhen, Pid: 0, Tid: ed.To,
				Cat: "causality", ID: id, BP: "e", Args: args},
		)
	}
	return out
}
