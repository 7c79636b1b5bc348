package core

import (
	"elision/internal/htm"
	"elision/internal/obs"
	"elision/internal/sim"
)

// Observed decorates a Scheme, feeding each completed critical section to a
// metrics collector as one obs.KindOp event: per-outcome latency split
// spec/non-spec, retries per op, the SCM serializing path's auxiliary-lock
// dwell time and the adaptive-policy facets. The event seals the section's
// attempt chain for the collector's sinks (flight recorder). The
// transactional layer's events (commits, aborts by cause, set sizes, hot
// lines) flow through the Memory's collector independently; together they
// give §4's accounting in time-resolved form.
type Observed struct {
	inner Scheme
	col   *obs.Collector
	// ev is the event being emitted, kept here so emitting never allocates.
	// Its kind is KindOp from construction and each emission writes every
	// op-payload field in place, so the fields outside it stay zero.
	ev obs.Event
}

var _ Scheme = (*Observed)(nil)

// Observe wraps s so its outcomes feed col. A nil collector returns s
// unchanged, keeping the uninstrumented path allocation- and branch-free.
func Observe(s Scheme, col *obs.Collector) Scheme {
	if col == nil {
		return s
	}
	return &Observed{inner: s, col: col, ev: obs.Event{Kind: obs.KindOp}}
}

// Name implements Scheme.
func (s *Observed) Name() string { return s.inner.Name() }

// Critical implements Scheme.
func (s *Observed) Critical(p *sim.Proc, body func(c htm.Ctx)) Outcome {
	start := p.Clock()
	o := s.inner.Critical(p, body)
	exhausted := ""
	if o.ForfeitEntered {
		exhausted = o.ExhaustedClass.String()
	}
	ev := &s.ev
	ev.When, ev.Tid, ev.Start = p.Clock(), p.ID(), start
	ev.Spec, ev.Attempts, ev.Aborts = o.Speculative, o.Attempts, o.Aborts
	ev.AuxUsed, ev.AuxDwell = o.AuxUsed, o.AuxDwell
	ev.Forfeited, ev.ForfeitEntered, ev.ForfeitExited = o.Forfeited, o.ForfeitEntered, o.ForfeitExited
	ev.ExhaustedClass = exhausted
	s.col.Observe(ev)
	return o
}
