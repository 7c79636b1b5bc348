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
	ev obs.Event
}

var _ Scheme = (*Observed)(nil)

// Observe wraps s so its outcomes feed col. A nil collector returns s
// unchanged, keeping the uninstrumented path allocation- and branch-free.
func Observe(s Scheme, col *obs.Collector) Scheme {
	if col == nil {
		return s
	}
	return &Observed{inner: s, col: col}
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
	s.ev = obs.Event{
		Kind:           obs.KindOp,
		When:           p.Clock(),
		Tid:            p.ID(),
		Start:          start,
		Spec:           o.Speculative,
		Attempts:       o.Attempts,
		Aborts:         o.Aborts,
		AuxUsed:        o.AuxUsed,
		AuxDwell:       o.AuxDwell,
		Forfeited:      o.Forfeited,
		ForfeitEntered: o.ForfeitEntered,
		ForfeitExited:  o.ForfeitExited,
		ExhaustedClass: exhausted,
	}
	s.col.Observe(&s.ev)
	return o
}
