package core

import (
	"reflect"
	"testing"

	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/obs"
	"elision/internal/sim"
)

// opLog is a sink keeping a copy of every event.
type opLog []obs.Event

func (l *opLog) Observe(ev *obs.Event) { *l = append(*l, *ev) }

// TestObservedEventsZeroOutsidePayload checks the obs.Event contract on
// Observed, which fills one reused event in place: across critical sections
// with and without the SCM aux facet and the adaptive forfeit facets, every
// field outside the op payload stays zero and each payload equals the
// literal built from the section's outcome.
func TestObservedEventsZeroOutsidePayload(t *testing.T) {
	const procs, ops = 4, 40
	forfeit := AdaptiveConfig{
		Retry:   [NumAbortClasses]int{0, 8, 0, 0},
		Forfeit: [NumAbortClasses]int{3, 1, 1, 1},
	}
	for _, c := range []struct {
		name  string
		build func(hm *htm.Memory, l locks.Elidable) Scheme
		facet func(ev *obs.Event) bool // the section shows the facet under test
	}{
		{"hle-scm", func(hm *htm.Memory, l locks.Elidable) Scheme {
			return NewSCM(hm, l, locks.NewMCS(hm, procs), OverHLE)
		}, func(ev *obs.Event) bool { return ev.AuxUsed }},
		{"adaptive-slr", func(hm *htm.Memory, l locks.Elidable) Scheme {
			s := NewAdaptive(hm, l, OverSLR, procs)
			if err := s.SetConfig(forfeit); err != nil {
				t.Fatal(err)
			}
			return s
		}, func(ev *obs.Event) bool { return ev.Forfeited || ev.ForfeitEntered || ev.ForfeitExited }},
	} {
		m := sim.MustNew(sim.Config{Procs: procs, Seed: 7})
		hm := htm.NewMemory(m, htm.Config{Words: 1 << 14, Cost: testCost()})
		var log opLog
		col := obs.NewCollector("", "", 0)
		col.Attach(&log)
		s := Observe(c.build(hm, locks.NewTTAS(hm)), col)
		cnt := hm.Store().AllocLines(1)
		var want []obs.Event
		for i := 0; i < procs; i++ {
			m.Go(func(p *sim.Proc) {
				for k := 0; k < ops; k++ {
					start := p.Clock()
					o := s.Critical(p, func(c htm.Ctx) {
						v := c.Load(cnt)
						c.Work(10 + p.RandN(20))
						c.Store(cnt, v+1)
					})
					exhausted := ""
					if o.ForfeitEntered {
						exhausted = o.ExhaustedClass.String()
					}
					want = append(want, obs.Event{
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
					})
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(log) != procs*ops || len(want) != procs*ops {
			t.Fatalf("%s: %d events for %d sections, want %d", c.name, len(log), len(want), procs*ops)
		}
		var with, without int
		for i := range log {
			if !reflect.DeepEqual(log[i], want[i]) {
				t.Fatalf("%s: event %d is %+v, want %+v", c.name, i, log[i], want[i])
			}
			if c.facet(&log[i]) {
				with++
			} else {
				without++
			}
		}
		if with == 0 || without == 0 {
			t.Fatalf("%s: %d sections with the facet and %d without; the check needs both", c.name, with, without)
		}
	}
}
