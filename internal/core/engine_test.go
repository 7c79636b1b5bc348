package core

import (
	"testing"

	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/mem"
	"elision/internal/sim"
)

// presetAborts runs one critical section of the named preset, with
// MaxRetries 3, on a body whose every speculative attempt aborts: by a
// conflict (retry hint set) when capacity is false, else by overflowing a
// 4-line read set (hint clear). It returns the section's outcome.
func presetAborts(t *testing.T, name string, capacity bool) Outcome {
	t.Helper()
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 3})
	cfg := htm.Config{Words: 1 << 14, Cost: testCost()}
	if capacity {
		cfg.MaxReadLines = 4
	}
	hm := htm.NewMemory(m, cfg)
	s, err := BuildScheme(hm, name, locks.NewTTAS(hm), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.(*Engine).MaxRetries = 3
	data := hm.Store().AllocLines(8)
	var o Outcome
	m.Go(func(p *sim.Proc) {
		o = s.Critical(p, func(c htm.Ctx) {
			for i := 0; i < 8; i++ {
				c.Load(data + mem.Addr(i*mem.LineWords))
			}
			c.Work(300)
		})
	})
	if !capacity {
		m.Go(func(p *sim.Proc) { // dooms every reader of data's first line
			for i := int64(0); i < 400; i++ {
				hm.StoreNT(p, data, i)
				p.Advance(50)
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestPresetRetryBudgets pins two of the details that separate presets
// sharing a loop shape: what MaxRetries counts (every attempt for opt-slr
// and lazysub, the retries after the first abort for hle-retries and SCM)
// and who honours the retry hint (everyone but HLE-style SCM, Figure 7).
func TestPresetRetryBudgets(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		conflictAborts, capAborts int
	}{
		{SchemeNameOptSLR, 3, 1},
		{SchemeNameLazySub, 3, 1},
		{SchemeNameHLERetries, 4, 1},
		{SchemeNameHLESCM, 4, 4},
		{SchemeNameSLRSCM, 4, 1},
		{SchemeNameHLESCMGrouped, 4, 4},
		{SchemeNameSLRSCMGrouped, 4, 1},
		// The default adaptive config: conflict budget 5, capacity 0.
		{SchemeNameAdaptiveHLE, 6, 1},
		{SchemeNameAdaptiveSLR, 6, 1},
	} {
		for _, capacity := range []bool{false, true} {
			want := tc.conflictAborts
			if capacity {
				want = tc.capAborts
			}
			o := presetAborts(t, tc.name, capacity)
			if o.Speculative || o.Aborts != want || o.Attempts != want+1 {
				t.Errorf("%s (capacity %v): %+v, want %d aborts then the lock", tc.name, capacity, o, want)
			}
		}
	}
}
