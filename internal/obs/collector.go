package obs

import "io"

// Metric names fed by the instrumented layers. Counters and histograms
// carry the collector's base labels (scheme, lock) plus the extra
// dimensions noted here.
const (
	// MetricCommits counts transactional commits (htm).
	MetricCommits = "htm_commits_total"
	// MetricAborts counts transactional aborts; extra label cause=<cause>.
	MetricAborts = "htm_aborts_total"
	// MetricReadSet / MetricWriteSet are set-size histograms in cache
	// lines; extra label at=commit|abort.
	MetricReadSet  = "htm_readset_lines"
	MetricWriteSet = "htm_writeset_lines"
	// MetricOps counts completed critical sections; extra label
	// path=spec|nonspec.
	MetricOps = "cs_ops_total"
	// MetricLatency is the critical-section latency histogram in cycles;
	// extra label path=spec|nonspec.
	MetricLatency = "cs_latency_cycles"
	// MetricRetries is the histogram of extra attempts per completed op
	// (attempts beyond the first).
	MetricRetries = "cs_retries_per_op"
	// MetricAuxEntries counts SCM serializing-path entries.
	MetricAuxEntries = "cs_aux_entries_total"
	// MetricAuxDwell is the histogram of cycles spent holding an SCM
	// auxiliary lock.
	MetricAuxDwell = "cs_aux_dwell_cycles"
	// MetricForfeitOps counts operations an adaptive scheme completed inside
	// a forfeit window (elision skipped, straight to the lock).
	MetricForfeitOps = "adaptive_forfeit_ops_total"
	// MetricForfeitEntries / MetricForfeitExits count adaptive forfeit
	// windows opened (a retry budget exhausted) and closed.
	MetricForfeitEntries = "adaptive_forfeit_entries_total"
	MetricForfeitExits   = "adaptive_forfeit_exits_total"
	// MetricBudgetExhausted counts adaptive retry-budget exhaustions; extra
	// label class=conflict|busy|capacity|other.
	MetricBudgetExhausted = "adaptive_budget_exhausted_total"
)

// TextReporter is implemented by sinks that can append a human-readable
// report to the collector's text dump (e.g. the causality scorecard).
type TextReporter interface {
	WriteText(w io.Writer)
}

// Collector is the metrics sink of one instrumented run: it feeds the
// registry, the conflict hot-line profiler and the windowed time series
// from the event stream, and forwards every event to the sinks attached to
// it (the causality engine, the flight recorder, the modelcheck oracle).
// A nil *Collector is a valid no-op sink, so the htm and core hot paths pay
// a single nil check when observability is off.
type Collector struct {
	// Reg is the metrics registry.
	Reg *Registry
	// Hot is the conflict hot-line profiler.
	Hot *HotLines
	// Series is the windowed time series.
	Series *Series
	// base carries the run's identity labels (scheme, lock).
	base Labels
	// sinks receive every event, in attachment order.
	sinks []Sink
	// ev is the event SetLockLines and Finish emit, kept here so emitting
	// never allocates.
	ev Event

	// Pre-resolved handles for the per-transaction hot path.
	commits       *Counter
	readAtCommit  *Histogram
	writeAtCommit *Histogram
	readAtAbort   *Histogram
	writeAtAbort  *Histogram
	opsSpec       *Counter
	opsNonSpec    *Counter
	latSpec       *Histogram
	latNonSpec    *Histogram
	retries       *Histogram
	auxEntries    *Counter
	auxDwell      *Histogram

	// lazy holds the handles resolved on first use (see counter), keyed by
	// metric name and label value.
	lazy map[[2]string]*Counter
}

// NewCollector builds a collector labelled with the run's scheme and lock,
// recording time series in windows of windowCycles (0 selects the default).
func NewCollector(scheme, lock string, windowCycles uint64) *Collector {
	base := Labels{}
	if scheme != "" {
		base = base.With("scheme", scheme)
	}
	if lock != "" {
		base = base.With("lock", lock)
	}
	reg := NewRegistry()
	return &Collector{
		Reg:    reg,
		Hot:    NewHotLines(),
		Series: NewSeries(windowCycles),
		base:   base,

		commits:       reg.Counter(MetricCommits, base),
		readAtCommit:  reg.Histogram(MetricReadSet, base.With("at", "commit")),
		writeAtCommit: reg.Histogram(MetricWriteSet, base.With("at", "commit")),
		readAtAbort:   reg.Histogram(MetricReadSet, base.With("at", "abort")),
		writeAtAbort:  reg.Histogram(MetricWriteSet, base.With("at", "abort")),
		opsSpec:       reg.Counter(MetricOps, base.With("path", "spec")),
		opsNonSpec:    reg.Counter(MetricOps, base.With("path", "nonspec")),
		latSpec:       reg.Histogram(MetricLatency, base.With("path", "spec")),
		latNonSpec:    reg.Histogram(MetricLatency, base.With("path", "nonspec")),
		retries:       reg.Histogram(MetricRetries, base),
		auxEntries:    reg.Counter(MetricAuxEntries, base),
		auxDwell:      reg.Histogram(MetricAuxDwell, base),
		lazy:          map[[2]string]*Counter{},
	}
}

// BaseLabels returns the collector's identity labels (scheme, lock).
func (c *Collector) BaseLabels() Labels {
	if c == nil {
		return nil
	}
	return c.base
}

// Attach adds s to the sinks every event is forwarded to, after those
// already attached. Nil receivers and sinks are no-ops.
func (c *Collector) Attach(s Sink) {
	if c == nil || s == nil {
		return
	}
	c.sinks = append(c.sinks, s)
}

// Sinks returns the attached sinks in attachment order.
func (c *Collector) Sinks() []Sink {
	if c == nil {
		return nil
	}
	return c.sinks
}

// Observe implements Sink: it feeds the registry, hot lines and series from
// ev, then forwards ev to every attached sink. Safe on a nil receiver.
func (c *Collector) Observe(ev *Event) {
	if c == nil {
		return
	}
	switch ev.Kind {
	case KindTxCommit:
		c.commits.Inc()
		c.readAtCommit.Observe(uint64(ev.ReadLines))
		c.writeAtCommit.Observe(uint64(ev.WriteLines))
		c.Series.RecordCommit(ev.When)
	case KindTxAbort:
		c.counter(MetricAborts, "cause", ev.Cause).Inc()
		c.readAtAbort.Observe(uint64(ev.ReadLines))
		c.writeAtAbort.Observe(uint64(ev.WriteLines))
		c.Hot.Record(ev.ConflictLine, ev.ConflictTid)
		c.Series.RecordAbort(ev.When)
	case KindOp:
		c.op(ev)
	}
	for _, s := range c.sinks {
		s.Observe(ev)
	}
}

// op records one completed critical section: its path, start-to-finish
// latency and retries (attempts beyond the first), the SCM serializing
// path's auxiliary-lock dwell, and the adaptive-policy facets.
func (c *Collector) op(ev *Event) {
	latency := ev.When - ev.Start
	if ev.Spec {
		c.opsSpec.Inc()
		c.latSpec.Observe(latency)
	} else {
		c.opsNonSpec.Inc()
		c.latNonSpec.Observe(latency)
	}
	c.retries.Observe(uint64(max(ev.Attempts-1, 0)))
	if ev.AuxUsed {
		c.auxEntries.Inc()
		c.auxDwell.Observe(ev.AuxDwell)
	}
	c.Series.RecordOp(ev.When, ev.Spec)
	if ev.Forfeited {
		c.counter(MetricForfeitOps, "", "").Inc()
	}
	if ev.ForfeitEntered {
		c.counter(MetricForfeitEntries, "", "").Inc()
		c.counter(MetricBudgetExhausted, "class", ev.ExhaustedClass).Inc()
	}
	if ev.ForfeitExited {
		c.counter(MetricForfeitExits, "", "").Inc()
	}
}

// counter returns the counter of name with the base labels plus key=value
// (none when key is ""), registering it on first use. Which of these
// families exist shows in every dump — the abort causes a run met, and
// adaptive_* only on adaptive runs — so they are not resolved up front.
func (c *Collector) counter(name, key, value string) *Counter {
	k := [2]string{name, value}
	h := c.lazy[k]
	if h == nil {
		ls := c.base
		if key != "" {
			ls = ls.With(key, value)
		}
		h = c.Reg.Counter(name, ls)
		c.lazy[k] = h
	}
	return h
}

// SetLockLines emits the cache lines the run's lock protocol occupies as a
// KindLockLines event. Safe on a nil receiver.
func (c *Collector) SetLockLines(lines []int) {
	if c == nil {
		return
	}
	c.ev = Event{Kind: KindLockLines, Lines: lines}
	c.Observe(&c.ev)
}

// Finish emits the end of the run at the given covered cycles as a
// KindFinish event, letting the sinks finalize (close open epochs, pin
// totals). Safe on a nil receiver.
func (c *Collector) Finish(totalCycles uint64) {
	if c == nil {
		return
	}
	c.ev = Event{Kind: KindFinish, When: totalCycles}
	c.Observe(&c.ev)
}

// SetGauge sets a run-level gauge (e.g. cycles covered, thread count) with
// the collector's base labels. Safe on a nil receiver.
func (c *Collector) SetGauge(name string, v int64) {
	if c == nil {
		return
	}
	c.Reg.Gauge(name, c.base).Set(v)
}

// WriteText dumps the registry, the hot-line table (top hotN; 0 keeps the
// default of 16), the time series and — for each attached sink that can
// report, in attachment order — its appended report (e.g. the causality
// scorecard), as one human-readable report. annotate, when non-nil, labels
// known cache lines in the hot-line table.
func (c *Collector) WriteText(w io.Writer, hotN int, annotate func(line int) string) {
	if c == nil {
		return
	}
	if hotN <= 0 {
		hotN = 16
	}
	c.Reg.WriteText(w)
	c.Hot.WriteText(w, hotN, annotate)
	c.Series.WriteText(w)
	for _, s := range c.sinks {
		if tr, ok := s.(TextReporter); ok {
			tr.WriteText(w)
		}
	}
}

// WriteCSV dumps the registry and the time series in CSV form (two tables
// separated by a blank line). Sink-registered metrics (causality epochs
// and depth/duration histograms) appear in the registry table.
func (c *Collector) WriteCSV(w io.Writer) {
	if c == nil {
		return
	}
	c.Reg.WriteCSV(w)
	io.WriteString(w, "\n")
	c.Series.WriteCSV(w)
}
