package harness

import (
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
	"elision/internal/trace"
)

// Section4Config is the §4 serialization-dynamics workload as a benchmark
// point: a size-64 tree under 20% updates at the scale's maximum thread
// count, over the given scheme and lock. With SchemeHLE over LockMCS it is
// the canonical lemming run; the same point under SchemeOptSLR shows the
// collapse absent.
func (sc Scale) Section4Config(scheme SchemeID, lock LockID) DSConfig {
	return DSConfig{
		Structure:    StructTree,
		Threads:      sc.maxThreads(),
		Size:         64,
		Mix:          MixModerate,
		Scheme:       scheme,
		Lock:         lock,
		BudgetCycles: sc.Budget,
		Seed:         sc.Seed,
		Quantum:      sc.Quantum,
		Cores:        sc.Cores,
	}
}

// newCollector builds the collector for one benchmark point, its window
// width sized to the run: ~20 windows across the cycle budget, so the
// lemming collapse is visible as a handful of numbers.
func newCollector(cfg DSConfig) *obs.Collector {
	return obs.NewCollector(string(cfg.Scheme), string(cfg.Lock), cfg.BudgetCycles/20)
}

// FlightRun executes one benchmark point with the full observability rig:
// a collector carrying the abort-causality engine and the flight recorder
// as sinks, plus the swimlane tracer. The returned engine holds the run's
// causality graph, abort classification and serialization epochs; the
// recorder holds its attempt chains, and its cycle-partition aggregates sit
// in the collector's registry as flight_* families. Both append their
// reports to the collector's text dump. ccfg's and fcfg's zero values
// select the defaults (raw-chain retention capped at
// flight.DefaultMaxChains).
func FlightRun(cfg DSConfig, ccfg causality.Config, fcfg flight.Config) (Result, *obs.Collector, *trace.Tracer, *causality.Engine, *flight.Recorder) {
	col := newCollector(cfg)
	eng := causality.Attach(col, ccfg)
	rec := flight.Attach(col, fcfg)
	tr := trace.New(0)
	res := NewInstance(nil).RunObserved(cfg, col, tr)
	return res, col, tr, eng, rec
}

// observe runs one point on in with a fresh collector carrying the
// abort-causality engine and, when withFlight, a flight recorder. The
// callers read only the engine's report and the registry families, so
// unlike FlightRun's rig the engine keeps no causality edges and the
// recorder no raw chains (the flight_* families carry its analytics).
func observe(in *Instance, cfg DSConfig, ccfg causality.Config, withFlight bool) (Result, *obs.Collector, *causality.Engine) {
	col := newCollector(cfg)
	ccfg.MaxEdges = -1
	eng := causality.Attach(col, ccfg)
	if withFlight {
		flight.Attach(col, flight.Config{MaxChains: -1})
	}
	return in.RunObserved(cfg, col, nil), col, eng
}
