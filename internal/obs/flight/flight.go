// Package flight is the transaction flight recorder: an always-on,
// low-overhead observer that logs every attempt event of every critical
// section — attempt starts, aborts with their class, commits, forfeit
// traffic, fallback lock wait/acquire/release — into compact per-thread
// append buffers, and links them into *attempt chains*: one chain is one
// logical critical section's full retry history, from its first speculative
// attempt to the commit or fallback release that completed it.
//
// Chain IDs are deterministic: chain "t3#17" is thread 3's 18th completed
// section, and because a simulated run is a bit-for-bit deterministic
// function of its config, the same ID names the same chain in every rerun.
//
// The analytics fold into the collector's registry as flight_* families —
// plain commutative counters and log2-bucket histograms — so campaign
// rollups (obs/rollup) aggregate them across fleet workers with no extra
// machinery and the folded output stays byte-identical at any worker count.
// The per-chain cycle accounting partitions every chain's span into named
// buckets:
//
//	commit           cycles inside speculative attempts that committed
//	wasted-<class>   cycles inside aborted attempts, by abort class
//	lock-wait        waiting for the fallback lock (outside forfeit windows)
//	lock-dwell       holding the fallback lock (outside forfeit windows)
//	forfeit-wait     waiting for the lock inside a forfeit window
//	forfeit-dwell    holding the lock inside a forfeit window
//	aux-wait         waiting for an SCM auxiliary lock
//	slack            everything else: tx begin/abort costs, WaitUntilFree
//	                 spins, failed non-transactional acquires
//
// The buckets sum exactly to the chain's span (auxiliary-lock *dwell*
// overlaps speculative attempts by design — SCM holds the auxiliary lock
// while retrying — so it is reported by the existing cs_aux_dwell_cycles
// family rather than double-counted here). Raw per-chain event lists are
// additionally retained up to Config.MaxChains for chronicle printing and
// Perfetto export; the aggregates always cover every chain.
package flight

import (
	"fmt"
	"io"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/obs"
)

// Event is one compact flight-recorder record: 16 bytes, appended to the
// owning thread's buffer in its own virtual-time order.
type Event struct {
	// When is the owning proc's virtual time.
	When uint64
	// Kind classifies the event: an attempt or lock-phase kind.
	Kind obs.Kind
	// Class is the abort class (obs.KindTxAbort only; ClassNone otherwise).
	Class core.AbortClass
}

// Chain is one completed critical section's full retry history.
type Chain struct {
	// Tid is the executing thread; Seq its per-thread completion index.
	// (Tid, Seq) is the chain's deterministic identity.
	Tid, Seq int
	// Start / End bound the chain in the thread's virtual time.
	Start, End uint64
	// Spec, Attempts, Aborts, AuxUsed, AuxDwell, Forfeited, ForfeitEntered,
	// ForfeitExited and ExhaustedClass mirror the sealing obs.KindOp event.
	Spec             bool
	Attempts, Aborts int
	AuxUsed          bool
	AuxDwell         uint64
	Forfeited        bool
	ForfeitEntered   bool
	ForfeitExited    bool
	ExhaustedClass   string
	// Events is the chain's recorded history in time order.
	Events []Event
}

// ID renders the chain's deterministic identity, e.g. "t3#17".
func (c *Chain) ID() string { return fmt.Sprintf("t%d#%d", c.Tid, c.Seq) }

// Span is the chain's total cycle count.
func (c *Chain) Span() uint64 { return c.End - c.Start }

// Cycle-accounting bucket names, in canonical order. BucketNames returns
// the full partition.
const (
	BucketCommit       = "commit"
	BucketLockWait     = "lock-wait"
	BucketLockDwell    = "lock-dwell"
	BucketForfeitWait  = "forfeit-wait"
	BucketForfeitDwell = "forfeit-dwell"
	BucketAuxWait      = "aux-wait"
	BucketSlack        = "slack"
)

// bucket indices into the accounting array. The four wasted-speculation
// buckets sit first, indexed by abort class.
const (
	bucketWastedBase = 0 // + int(core.AbortClass)
	bucketCommit     = core.NumAbortClasses + iota - 1
	bucketLockWait
	bucketLockDwell
	bucketForfeitWait
	bucketForfeitDwell
	bucketAuxWait
	bucketSlack
	numBuckets
)

// WastedBucket names the wasted-speculation bucket of one abort class,
// e.g. "wasted-conflict".
func WastedBucket(cl core.AbortClass) string { return "wasted-" + cl.String() }

// BucketNames returns every accounting bucket in canonical order; the named
// cycles sum exactly to the summed chain spans.
func BucketNames() []string {
	names := make([]string, numBuckets)
	for cl := core.AbortClass(0); int(cl) < core.NumAbortClasses; cl++ {
		names[int(cl)] = WastedBucket(cl)
	}
	names[bucketCommit] = BucketCommit
	names[bucketLockWait] = BucketLockWait
	names[bucketLockDwell] = BucketLockDwell
	names[bucketForfeitWait] = BucketForfeitWait
	names[bucketForfeitDwell] = BucketForfeitDwell
	names[bucketAuxWait] = BucketAuxWait
	names[bucketSlack] = BucketSlack
	return names
}

// Metric families the recorder folds into the collector's registry. All
// carry the collector's base labels (scheme, lock) plus the extra
// dimensions noted.
const (
	// MetricChains counts completed chains; extra label path=spec|nonspec.
	MetricChains = "flight_chains_total"
	// MetricChainCycles is the cycles-to-commit latency histogram (chain
	// span); extra label path=spec|nonspec.
	MetricChainCycles = "flight_chain_cycles"
	// MetricChainAttempts is the chain-length distribution (attempts per
	// chain).
	MetricChainAttempts = "flight_chain_attempts"
	// MetricCycles is the cycle-accounting partition; extra label
	// bucket=<BucketNames entry>.
	MetricCycles = "flight_cycles_total"
	// MetricAborts counts aborted attempts; extra label
	// class=conflict|busy|capacity|other (the adaptive policy classes, vs
	// htm_aborts_total's hardware causes).
	MetricAborts = "flight_aborts_total"
	// MetricEvents counts recorded events (the recorder's volume).
	MetricEvents = "flight_events_total"
	// MetricTruncated counts chains whose raw event list was dropped once
	// Config.MaxChains was reached (aggregates still cover them).
	MetricTruncated = "flight_chains_truncated_total"
)

// Config parameterizes a Recorder.
type Config struct {
	// MaxChains bounds how many chains keep their raw event lists (for
	// chronicle printing and Perfetto export); 0 selects DefaultMaxChains,
	// negative retains none. The registry aggregates always cover every
	// chain regardless.
	MaxChains int
}

// DefaultMaxChains is the default raw-chain retention bound: enough for a
// single explained run, small enough that campaign-wide recording stays in
// the overhead budget.
const DefaultMaxChains = 4096

// lane is one thread's append buffer: the events of its currently open
// chain, plus the number of chains it has sealed.
type lane struct {
	events []Event
	seq    int
}

// Recorder is the flight recorder, an obs.Sink. Attach one to a collector
// with Attach. The simulator's single-runner invariant serializes all
// calls.
type Recorder struct {
	col *obs.Collector
	cfg Config

	lanes  []lane
	chains []*Chain
	sealed int

	// Aggregates, flushed into the registry at KindFinish.
	cycles        [numBuckets]uint64
	abortsByClass [core.NumAbortClasses]uint64
	events        uint64
	truncated     uint64
	flushed       bool

	// Pre-resolved histogram handles (observed at seal time).
	chainSpec     *obs.Histogram
	chainNonSpec  *obs.Histogram
	chainAttempts *obs.Histogram
}

var (
	_ obs.Sink         = (*Recorder)(nil)
	_ obs.TextReporter = (*Recorder)(nil)
)

// Attach builds a recorder over col's event stream and attaches it to col
// after any sink already attached (the causality engine and the recorder
// share one collector). Returns nil on a nil collector.
func Attach(col *obs.Collector, cfg Config) *Recorder {
	if col == nil {
		return nil
	}
	if cfg.MaxChains == 0 {
		cfg.MaxChains = DefaultMaxChains
	}
	base := col.BaseLabels()
	r := &Recorder{
		col:           col,
		cfg:           cfg,
		chainSpec:     col.Reg.Histogram(MetricChainCycles, base.With("path", "spec")),
		chainNonSpec:  col.Reg.Histogram(MetricChainCycles, base.With("path", "nonspec")),
		chainAttempts: col.Reg.Histogram(MetricChainAttempts, base),
	}
	col.Attach(r)
	return r
}

// lane returns tid's lane, growing the lane table on demand.
func (r *Recorder) lane(tid int) *lane {
	for tid >= len(r.lanes) {
		r.lanes = append(r.lanes, lane{})
	}
	return &r.lanes[tid]
}

// record appends one event to tid's open chain.
func (r *Recorder) record(tid int, ev Event) {
	ln := r.lane(tid)
	ln.events = append(ln.events, ev)
	r.events++
}

// Observe implements obs.Sink: record each attempt and lock-phase event
// on its thread's open chain, seal the chain on KindOp, and flush the
// aggregates on KindFinish.
func (r *Recorder) Observe(ev *obs.Event) {
	switch ev.Kind {
	case obs.KindTxBegin, obs.KindTxCommit, obs.KindLockWait, obs.KindLockAcquire,
		obs.KindLockRelease, obs.KindAuxWait, obs.KindAuxAcquire, obs.KindAuxRelease:
		r.record(ev.Tid, Event{When: ev.When, Kind: ev.Kind, Class: core.ClassNone})
	case obs.KindTxAbort:
		class := core.ClassifyAbort(htm.Status{Cause: htm.Cause(ev.Arg), Code: ev.Code})
		r.record(ev.Tid, Event{When: ev.When, Kind: ev.Kind, Class: class})
	case obs.KindOp:
		r.seal(ev)
	case obs.KindFinish:
		r.flush()
	}
}

// seal closes ev.Tid's open chain with the section's payload.
func (r *Recorder) seal(ev *obs.Event) {
	ln := r.lane(ev.Tid)
	c := Chain{
		Tid:            ev.Tid,
		Seq:            ln.seq,
		Start:          ev.Start,
		End:            ev.When,
		Spec:           ev.Spec,
		Attempts:       ev.Attempts,
		Aborts:         ev.Aborts,
		AuxUsed:        ev.AuxUsed,
		AuxDwell:       ev.AuxDwell,
		Forfeited:      ev.Forfeited,
		ForfeitEntered: ev.ForfeitEntered,
		ForfeitExited:  ev.ForfeitExited,
		ExhaustedClass: ev.ExhaustedClass,
	}
	ln.seq++

	// The lane holds exactly this chain's events, except for strays emitted
	// before Critical was entered (none today; guarded for robustness).
	events := ln.events
	for len(events) > 0 && events[0].When < c.Start {
		events = events[1:]
	}

	// Aggregate the chain into the cycle partition and the distributions.
	var acct [numBuckets]uint64
	r.account(&c, events, &acct)
	for i := 0; i < numBuckets; i++ {
		r.cycles[i] += acct[i]
	}
	r.chainAttempts.Observe(uint64(c.Attempts))
	if c.Spec {
		r.chainSpec.Observe(c.Span())
	} else {
		r.chainNonSpec.Observe(c.Span())
	}
	r.sealed++

	// Retain the raw chain while under the cap. Only the retained copy is
	// allocated: an aggregates-only recorder keeps c on the stack.
	if len(r.chains) < r.cfg.MaxChains {
		kept := c
		kept.Events = append([]Event(nil), events...)
		r.chains = append(r.chains, &kept)
	} else {
		r.truncated++
	}
	ln.events = ln.events[:0]
}

// account partitions one chain's span across the cycle buckets by replaying
// its events through a phase state machine. Unclosed phases (e.g. a
// lock-wait whose non-blocking acquire failed and speculation resumed) fall
// into slack, as do inter-phase gaps: tx begin/abort costs, WaitUntilFree
// spins, backoffs.
func (r *Recorder) account(c *Chain, events []Event, acct *[numBuckets]uint64) {
	lockWaitBucket, lockDwellBucket := bucketLockWait, bucketLockDwell
	if c.Forfeited {
		// Inside a forfeit window the fallback is policy, not failure:
		// account its cost separately so forfeit efficiency is visible.
		lockWaitBucket, lockDwellBucket = bucketForfeitWait, bucketForfeitDwell
	}
	var txStart, waitStart, holdStart, auxWaitStart uint64
	var txOpen, waitOpen, holdOpen, auxWaitOpen bool
	attributed := uint64(0)
	add := func(bucket int, cycles uint64) {
		acct[bucket] += cycles
		attributed += cycles
	}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindTxBegin:
			txStart, txOpen = ev.When, true
		case obs.KindTxCommit:
			if txOpen {
				add(bucketCommit, ev.When-txStart)
				txOpen = false
			}
		case obs.KindTxAbort:
			if txOpen {
				cl := ev.Class
				if cl < 0 || int(cl) >= core.NumAbortClasses {
					cl = core.ClassOther
				}
				add(bucketWastedBase+int(cl), ev.When-txStart)
				r.abortsByClass[cl]++
				txOpen = false
			}
		case obs.KindLockWait:
			waitStart, waitOpen = ev.When, true
		case obs.KindLockAcquire:
			if waitOpen {
				add(lockWaitBucket, ev.When-waitStart)
				waitOpen = false
			}
			holdStart, holdOpen = ev.When, true
		case obs.KindLockRelease:
			if holdOpen {
				add(lockDwellBucket, ev.When-holdStart)
				holdOpen = false
			}
		case obs.KindAuxWait:
			auxWaitStart, auxWaitOpen = ev.When, true
		case obs.KindAuxAcquire:
			if auxWaitOpen {
				add(bucketAuxWait, ev.When-auxWaitStart)
				auxWaitOpen = false
			}
			// The auxiliary dwell overlaps speculative attempts by design;
			// it is already accounted by cs_aux_dwell_cycles.
		case obs.KindAuxRelease:
		}
	}
	if span := c.Span(); span > attributed {
		acct[bucketSlack] += span - attributed
	}
}

// flush folds the aggregates into the registry (idempotent).
func (r *Recorder) flush() {
	if r.flushed {
		return
	}
	r.flushed = true
	base := r.col.BaseLabels()
	reg := r.col.Reg
	var spec, nonSpec uint64
	spec = r.chainSpec.Count()
	nonSpec = r.chainNonSpec.Count()
	reg.Counter(MetricChains, base.With("path", "spec")).Add(spec)
	reg.Counter(MetricChains, base.With("path", "nonspec")).Add(nonSpec)
	for i, name := range BucketNames() {
		reg.Counter(MetricCycles, base.With("bucket", name)).Add(r.cycles[i])
	}
	for cl := core.AbortClass(0); int(cl) < core.NumAbortClasses; cl++ {
		reg.Counter(MetricAborts, base.With("class", cl.String())).Add(r.abortsByClass[cl])
	}
	reg.Counter(MetricEvents, base).Add(r.events)
	if r.truncated > 0 {
		reg.Counter(MetricTruncated, base).Add(r.truncated)
	}
}

// Chains returns the retained raw chains in seal order (deterministic: the
// simulator's event order is a function of the config alone).
func (r *Recorder) Chains() []*Chain {
	return r.chains
}

// Chain returns the retained chain with the given ID (e.g. "t3#17"), or nil
// if it was never sealed or fell past the retention cap.
func (r *Recorder) Chain(id string) *Chain {
	for _, c := range r.chains {
		if c.ID() == id {
			return c
		}
	}
	return nil
}

// Sealed returns the total number of chains sealed (including ones past the
// raw-retention cap).
func (r *Recorder) Sealed() int { return r.sealed }

// WriteText implements obs.TextReporter: a compact flight summary — chain
// counts, latency percentiles and the cycle partition — appended to the
// collector's text report.
func (r *Recorder) WriteText(w io.Writer) {
	fmt.Fprintf(w, "\nflight recorder: %d chain(s), %d event(s)\n", r.sealed, r.events)
	fmt.Fprintf(w, "  cycles-to-commit p50/p99/p999: spec %d/%d/%d  nonspec %d/%d/%d\n",
		r.chainSpec.Quantile(0.50), r.chainSpec.Quantile(0.99), r.chainSpec.Quantile(0.999),
		r.chainNonSpec.Quantile(0.50), r.chainNonSpec.Quantile(0.99), r.chainNonSpec.Quantile(0.999))
	fmt.Fprintf(w, "  chain length mean/p99/max: %.2f/%d/%d attempts\n",
		r.chainAttempts.Mean(), r.chainAttempts.Quantile(0.99), r.chainAttempts.Max())
	total := uint64(0)
	for _, v := range r.cycles {
		total += v
	}
	fmt.Fprintf(w, "  cycle partition (%d total):\n", total)
	for i, name := range BucketNames() {
		if r.cycles[i] == 0 {
			continue
		}
		share := 100 * float64(r.cycles[i]) / float64(total)
		fmt.Fprintf(w, "    %-16s %12d (%5.1f%%)\n", name, r.cycles[i], share)
	}
}

// WriteChronicle prints one chain's full history: the header facts, then
// every event with its offset into the chain and the per-bucket accounting.
func (r *Recorder) WriteChronicle(w io.Writer, c *Chain) {
	path := "nonspec"
	if c.Spec {
		path = "spec"
	}
	fmt.Fprintf(w, "chain %s: thread %d, cycles %d..%d (span %d), %s, %d attempt(s), %d abort(s)\n",
		c.ID(), c.Tid, c.Start, c.End, c.Span(), path, c.Attempts, c.Aborts)
	if c.Forfeited || c.ForfeitEntered || c.ForfeitExited {
		fmt.Fprintf(w, "  forfeit: inside-window=%v entered=%v exited=%v class=%s\n",
			c.Forfeited, c.ForfeitEntered, c.ForfeitExited, c.ExhaustedClass)
	}
	if c.AuxUsed {
		fmt.Fprintf(w, "  serializing path: aux dwell %d cycles\n", c.AuxDwell)
	}
	for _, ev := range c.Events {
		cls := ""
		if ev.Kind == obs.KindTxAbort {
			cls = " class=" + ev.Class.String()
		}
		fmt.Fprintf(w, "  +%-8d %s%s\n", ev.When-c.Start, ev.Kind, cls)
	}
	var acct [numBuckets]uint64
	var scratch Recorder
	scratch.account(c, c.Events, &acct)
	fmt.Fprintln(w, "  accounting:")
	for i, name := range BucketNames() {
		if acct[i] == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-16s %12d\n", name, acct[i])
	}
}

// ChromeTraceEvents renders one chain as a Perfetto slice stack on the
// chain's thread lane: the chain span as the outer slice, each attempt and
// lock phase nested inside, and abort instants with their class.
func ChromeTraceEvents(c *Chain) []obs.TraceEvent {
	out := make([]obs.TraceEvent, 0, 2*len(c.Events)+4)
	out = append(out, obs.TraceEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "flight"},
	})
	out = append(out, obs.TraceEvent{
		Name: "thread_name", Ph: "M", Pid: 0, Tid: c.Tid,
		Args: map[string]any{"name": fmt.Sprintf("thread %d", c.Tid)},
	})
	depth := 0
	b := func(ts uint64, name string, args map[string]any) {
		depth++
		out = append(out, obs.TraceEvent{Name: name, Ph: "B", Ts: ts, Pid: 0, Tid: c.Tid, Args: args})
	}
	e := func(ts uint64) {
		depth--
		out = append(out, obs.TraceEvent{Ph: "E", Ts: ts, Pid: 0, Tid: c.Tid})
	}
	b(c.Start, "chain "+c.ID(), map[string]any{
		"attempts": c.Attempts, "aborts": c.Aborts, "spec": c.Spec,
	})
	var txOpen, lockOpen, auxOpen bool
	attempt := 0
	for _, ev := range c.Events {
		switch ev.Kind {
		case obs.KindTxBegin:
			attempt++
			b(ev.When, fmt.Sprintf("attempt %d", attempt), nil)
			txOpen = true
		case obs.KindTxCommit:
			if txOpen {
				e(ev.When)
				txOpen = false
			}
		case obs.KindTxAbort:
			if txOpen {
				e(ev.When)
				txOpen = false
			}
			out = append(out, obs.TraceEvent{
				Name: "abort " + ev.Class.String(), Ph: "i", Ts: ev.When,
				Pid: 0, Tid: c.Tid, Scope: "t",
			})
		case obs.KindLockWait:
			b(ev.When, "lock-wait", nil)
			lockOpen = true
		case obs.KindLockAcquire:
			if lockOpen {
				e(ev.When)
			}
			b(ev.When, "lock-held", nil)
			lockOpen = true
		case obs.KindLockRelease:
			if lockOpen {
				e(ev.When)
				lockOpen = false
			}
		case obs.KindAuxWait:
			b(ev.When, "aux-wait", nil)
			auxOpen = true
		case obs.KindAuxAcquire:
			if auxOpen {
				e(ev.When)
			}
			b(ev.When, "aux-held", nil)
			auxOpen = true
		case obs.KindAuxRelease:
			if auxOpen {
				e(ev.When)
				auxOpen = false
			}
		}
	}
	// Close whatever is still open (failed non-blocking acquires can leave
	// an unmatched wait slice), innermost first, then the chain slice.
	for depth > 0 {
		e(c.End)
	}
	return out
}
