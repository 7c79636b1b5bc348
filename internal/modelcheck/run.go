package modelcheck

import (
	"fmt"

	"elision/internal/check"
	"elision/internal/core"
	"elision/internal/hashtable"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/rbtree"
	"elision/internal/sim"
)

// SchemeBuilder constructs the scheme (and the main lock it guards) a run
// executes. The default builder goes through the core factory; mutant runs
// substitute deliberately broken implementations.
type SchemeBuilder func(hm *htm.Memory, c Case) (core.Scheme, locks.Elidable, error)

// Result is the outcome of one model-checking run.
type Result struct {
	// Case is the (clamped) case that ran.
	Case Case
	// Violations lists every oracle failure, in detection order. Empty
	// means the run passed every oracle.
	Violations []Violation
	// Deadlock reports the simulator detected a deadlock (also recorded as
	// a progress violation).
	Deadlock bool
	// Stats is the §4 accounting of the run.
	Stats core.Stats
}

// Expected counts the violations covered by the scheme's expected-fail
// profile (lazysub demonstrating its documented unsafety).
func (r Result) Expected() int {
	n := 0
	for _, v := range r.Violations {
		if v.Expected {
			n++
		}
	}
	return n
}

// Unexpected counts the violations NOT covered by an expected-fail profile
// — real failures that must redden a campaign.
func (r Result) Unexpected() int { return len(r.Violations) - r.Expected() }

// container is the common surface of the two data-structure benchmarks.
type container interface {
	Insert(ac htm.Accessor, key, val int64) bool
	Delete(ac htm.Accessor, key int64) bool
	Lookup(ac htm.Accessor, key int64) (int64, bool)
	Size(ac htm.Accessor) int
}

// factoryBuilder builds the real scheme/lock combination named by the case.
func factoryBuilder(hm *htm.Memory, c Case) (core.Scheme, locks.Elidable, error) {
	l, err := core.BuildLock(hm, c.Lock, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	s, err := core.BuildScheme(hm, c.Scheme, l, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	return s, l, nil
}

// applyMaxRetries pushes the case's retry policy into the built scheme.
// Presets without a fixed budget (standard, raw HLE, adaptive) ignore
// MaxRetries; adaptive schemes take the case's ACfg instead (validated by
// RunWith before the build).
func applyMaxRetries(s core.Scheme, c Case) {
	e, ok := s.(*core.Engine)
	if !ok {
		return
	}
	e.MaxRetries = c.MaxRetries
	if !e.Adaptive() {
		return
	}
	if cfg, err := core.ParseAdaptiveConfig(c.ACfg); err == nil {
		if serr := e.SetConfig(cfg); serr != nil {
			panic(serr) // unreachable: ParseAdaptiveConfig validates
		}
	}
}

// memWords sizes the simulated memory: container buckets/nodes plus heap
// chunks for every proc stay far below this for the generated envelope.
const memWords = 1 << 18

// Run executes one model-checking run of the real scheme/lock combination
// named by c and reports every oracle violation.
func Run(c Case) Result {
	return RunWith(c, nil)
}

// RunWith executes one run with a custom scheme builder (nil selects the
// factory). The oracle profile is resolved from c.Scheme, so a mutant run
// is held to the contract of the real scheme it claims to implement.
func RunWith(c Case, build SchemeBuilder) Result {
	c = c.withDefaults()
	res := Result{Case: c}
	repro := c.Repro()
	fail := func(oracle, format string, args ...any) {
		res.Violations = append(res.Violations, Violation{
			Oracle: oracle,
			Detail: fmt.Sprintf(format, args...) + " [repro " + repro + "]",
		})
	}

	m, err := sim.New(sim.Config{
		Procs:        c.Threads,
		Seed:         c.Seed,
		Quantum:      c.Quantum,
		Cores:        c.Cores,
		JitterCycles: c.Jitter,
	})
	if err != nil {
		fail(OracleConfig, "sim config rejected: %v", err)
		return res
	}
	hm := htm.NewMemory(m, htm.Config{
		Words:                             memWords,
		AbortOnDangerousWhileUnsubscribed: c.HWFix,
	})
	col := obs.NewCollector(c.Scheme, c.Lock, 0)
	hm.SetCollector(col)
	// MaxEdges must exceed any possible abort count so the exact
	// edges-vs-aborts conservation law holds (the engine caps retained
	// edges, not classification).
	eng := causality.New(causality.Config{MaxEdges: 1 << 30})
	if core.AdaptiveSchemeName(c.Scheme) {
		if _, aerr := core.ParseAdaptiveConfig(c.ACfg); aerr != nil {
			fail(OracleConfig, "adaptive config: %v", aerr)
			return res
		}
	}
	prof := profileFor(c)
	orc := newOracle(prof, eng, repro)
	col.Attach(orc)

	if build == nil {
		if c.Mutant != "" {
			fail(OracleConfig, "case names mutant %q but no builder was supplied", c.Mutant)
			return res
		}
		build = factoryBuilder
	}
	scheme, mainLock, err := build(hm, c)
	if err != nil {
		fail(OracleConfig, "build: %v", err)
		return res
	}
	applyMaxRetries(scheme, c)
	if lr, ok := mainLock.(locks.LineReporter); ok {
		col.SetLockLines(lr.LockLines())
		// Register the same lines as htm's subscription set: a transactional
		// read of any of them is a lock subscription. Tracking is observation
		// only unless c.HWFix armed the dangerous-action extension.
		hm.SetSubscriptionLines(lr.LockLines())
	}

	// Containers and their initial population (even keys pre-inserted).
	raw := htm.Raw{M: hm}
	objs := make([]container, c.Objs)
	initial := make(map[int]map[int64]int64, c.Objs)
	for i := range objs {
		switch c.Struct {
		case StructRBTree:
			objs[i] = rbtree.New(hm, c.Threads)
		default:
			objs[i] = hashtable.New(hm, c.Threads, int(c.Keys)/4+1)
		}
		init := make(map[int64]int64)
		for k := int64(0); k < c.Keys; k += 2 {
			v := k*10 + int64(i)
			objs[i].Insert(raw, k, v)
			init[k] = v
		}
		initial[i] = init
	}

	var hist check.History
	hist.SetRepro(repro)
	obsScheme := core.Observe(scheme, col)
	abortBound := prof.abortBound(c.MaxRetries)

	var stats core.Stats
	// seq is the logical linearization stamp. Clock stamps (the seed
	// linearizability test's idiom) are only sound at Quantum==0: a nonzero
	// quantum or jitter lets the running proc's clock lead other runnable
	// procs, so clock order stops being execution order and clock-sorted
	// replay reports phantom violations. The sim's single-runner invariant
	// serializes all host code, so a shared counter drawn at each
	// operation's linearization point captures the true serialization order
	// at any skew. The linearization points differ by path:
	//
	//   - A speculative op linearizes at its COMMIT — drawn via the
	//     oracle's onCommit hook, which fires in the same non-yielding
	//     stretch that published the write set. Stamping at the body's last
	//     data access would be wrong for SLR: its transactions run
	//     unsubscribed alongside a lock holder, may legitimately observe
	//     the holder's earlier writes, and only commit after the holder
	//     releases — i.e. they serialize AFTER a section whose body ends
	//     later than theirs.
	//   - A fallback (lock-held) op linearizes inside the hold; the stamp
	//     is drawn in the body after the last data access. No transaction
	//     can commit during the hold (subscription dooms HLE/SCM, the
	//     commit-time lock check stalls SLR), so nothing can serialize
	//     between the body's accesses and that stamp.
	var seq uint64
	var lastCommit [sim.MaxProcs]uint64
	orc.onCommit = func(tid int) {
		seq++
		lastCommit[tid] = seq
	}
	for i := 0; i < c.Threads; i++ {
		m.Go(func(p *sim.Proc) {
			// expectSkip replays the forfeit-window state machine for this
			// proc (adaptive profiles only): how many forfeited acquisitions
			// the scheme still owes after the last budget exhaustion.
			expectSkip := 0
			var pend []check.Event
			stamp := func() {
				seq++
				for j := range pend {
					pend[j].When = seq
				}
			}
			for k := 0; k < c.Ops; k++ {
				// All draws happen outside the critical-section body: the
				// body may re-run on aborted speculation and must be
				// overwrite-idempotent.
				var key int64
				if int(p.RandN(100)) < c.Skew {
					key = 0
				} else {
					key = int64(p.RandN(uint64(c.Keys)))
				}
				obj := 0
				if c.Objs > 1 {
					obj = int(p.RandN(uint64(c.Objs)))
				}
				val := int64(p.RandN(1000))
				kind := int(p.RandN(100))
				ins := p.RandN(2) == 0

				var o core.Outcome
				switch {
				case kind < c.ReadPct:
					o = obsScheme.Critical(p, func(cx htm.Ctx) {
						pend = pend[:0]
						got, ok := objs[obj].Lookup(cx, key)
						pend = append(pend, check.Event{
							Obj: obj, Op: check.OpLookup,
							Key: key, Found: ok, Got: got,
						})
						stamp()
					})
				case c.Objs > 1 && kind < c.ReadPct+c.MovePct:
					// Atomic cross-container move: lookup+delete on one
					// object, insert into the other, in ONE critical
					// section — the multi-object serializability probe.
					// All three events share one stamp, so replay keeps the
					// section atomic.
					dst := 1 - obj
					o = obsScheme.Critical(p, func(cx htm.Ctx) {
						pend = pend[:0]
						got, ok := objs[obj].Lookup(cx, key)
						pend = append(pend, check.Event{
							Obj: obj, Op: check.OpLookup,
							Key: key, Found: ok, Got: got,
						})
						if !ok {
							stamp()
							return
						}
						del := objs[obj].Delete(cx, key)
						pend = append(pend, check.Event{
							Obj: obj, Op: check.OpDelete,
							Key: key, Found: del,
						})
						was := objs[dst].Insert(cx, key, got)
						pend = append(pend, check.Event{
							Obj: dst, Op: check.OpInsert,
							Key: key, Val: got, Found: was,
						})
						stamp()
					})
				case ins:
					o = obsScheme.Critical(p, func(cx htm.Ctx) {
						pend = pend[:0]
						was := objs[obj].Insert(cx, key, val)
						pend = append(pend, check.Event{
							Obj: obj, Op: check.OpInsert,
							Key: key, Val: val, Found: was,
						})
						stamp()
					})
				default:
					o = obsScheme.Critical(p, func(cx htm.Ctx) {
						pend = pend[:0]
						del := objs[obj].Delete(cx, key)
						pend = append(pend, check.Event{
							Obj: obj, Op: check.OpDelete,
							Key: key, Found: del,
						})
						stamp()
					})
				}
				if o.Speculative {
					// Restamp at the commit's serialization position.
					w := lastCommit[p.ID()]
					for j := range pend {
						pend[j].When = w
					}
				}
				for _, e := range pend {
					e.Proc = p.ID()
					hist.Record(e)
				}
				stats.Add(o)

				// Per-outcome scheme-contract oracles.
				if prof.auxOnAbort && o.Aborts > 0 && !o.AuxUsed {
					fail(OracleSCMStructure,
						"proc %d op %d aborted %d time(s) but never entered the serializing path",
						p.ID(), k, o.Aborts)
				}
				if abortBound >= 0 && o.Aborts > abortBound {
					fail(OracleAbortBound,
						"proc %d op %d suffered %d aborts, scheme bounds it at %d",
						p.ID(), k, o.Aborts, abortBound)
				}
				if prof.adaptive != nil {
					switch {
					case expectSkip > 0 && !o.Forfeited:
						fail(OracleForfeit,
							"proc %d op %d speculated inside a forfeit window (%d skips still owed)",
							p.ID(), k, expectSkip)
						expectSkip = 0 // resync to the scheme's actual behavior
					case expectSkip == 0 && o.Forfeited:
						fail(OracleForfeit,
							"proc %d op %d ran forfeited outside any forfeit window", p.ID(), k)
					}
					if o.Forfeited && expectSkip > 0 {
						expectSkip--
						if exited := expectSkip == 0; exited != o.ForfeitExited {
							fail(OracleForfeit,
								"proc %d op %d window exit flag %v, replayed machine says %v (skips left %d)",
								p.ID(), k, o.ForfeitExited, exited, expectSkip)
						}
					}
					if o.ForfeitEntered {
						if o.ExhaustedClass < 0 || int(o.ExhaustedClass) >= core.NumAbortClasses {
							fail(OracleForfeit,
								"proc %d op %d opened a forfeit window with invalid abort class %d",
								p.ID(), k, o.ExhaustedClass)
						} else {
							expectSkip = prof.adaptive.Forfeit[o.ExhaustedClass]
						}
					}
				}
			}
		})
	}

	runErr := m.Run()
	var maxClock uint64
	for i := 0; i < c.Threads; i++ {
		if cl := m.Proc(i).Clock(); cl > maxClock {
			maxClock = cl
		}
	}
	col.Finish(maxClock)
	res.Stats = stats
	if runErr != nil {
		res.Deadlock = true
		fail(OracleProgress, "scheduler: %v", runErr)
	}

	// Serializability: the recorded multi-object history must replay
	// serially in linearization order.
	if err := hist.VerifyObjects(initial); err != nil {
		res.Violations = append(res.Violations, Violation{
			Oracle: OracleSerializability, Detail: err.Error(),
		})
	}

	// Post-run accounting oracles only make sense for complete runs: a
	// deadlocked machine kills bodies mid-operation.
	if !res.Deadlock {
		wantOps := uint64(c.Threads) * uint64(c.Ops)
		if stats.Ops != wantOps {
			fail(OracleOpsAccounting, "completed %d ops, workload issued %d", stats.Ops, wantOps)
		}
		if orc.ops != wantOps {
			fail(OracleOpsAccounting, "observer saw %d ops, workload issued %d", orc.ops, wantOps)
		}

		// Final-state: each container must match the history's replayed
		// model exactly.
		finals := hist.FinalObjects(initial)
		for i, obj := range objs {
			model := finals[i]
			for k, v := range model {
				got, ok := obj.Lookup(raw, k)
				if !ok || got != v {
					fail(OracleFinalState,
						"obj %d key %d: container has (%d,%v), model %d", i, k, got, ok, v)
				}
			}
			if sz := obj.Size(raw); sz != len(model) {
				fail(OracleFinalState, "obj %d holds %d keys, model %d", i, sz, len(model))
			}
		}

		// Conservation laws over the obs counters and the causality graph.
		rep := eng.Report()
		if rep.Commits != stats.Spec {
			fail(OracleConservation, "htm commits %d != speculative completions %d",
				rep.Commits, stats.Spec)
		}
		var classed uint64
		for _, cl := range []string{
			causality.ClassFallbackLock, causality.ClassFallbackData,
			causality.ClassSpecConflict, causality.ClassOther,
		} {
			classed += rep.AbortsByClass[cl]
		}
		if classed != stats.Aborts {
			fail(OracleConservation, "causality engine classified %d aborts, schemes counted %d",
				classed, stats.Aborts)
		}
		edges := uint64(len(eng.Edges()))
		if edges != orc.conflictEdges {
			fail(OracleConservation,
				"causality graph has %d edges, stream carried %d attributable conflict aborts",
				edges, orc.conflictEdges)
		}
		if other := classed - rep.AbortsByClass[causality.ClassOther]; other != edges {
			fail(OracleConservation,
				"aborts(%d) != edges(%d) + capacity/explicit/unattributed(%d)",
				classed, edges, rep.AbortsByClass[causality.ClassOther])
		}
		if orc.commits != stats.Spec {
			fail(OracleConservation, "observer saw %d commits, schemes counted %d spec ops",
				orc.commits, stats.Spec)
		}
		want := stats.Aborts + stats.Ops
		if prof.attemptsExact {
			if stats.Attempts != want {
				fail(OracleConservation, "attempts %d != aborts %d + ops %d",
					stats.Attempts, stats.Aborts, stats.Ops)
			}
		} else if stats.Attempts < want {
			fail(OracleConservation, "attempts %d < aborts %d + ops %d",
				stats.Attempts, stats.Aborts, stats.Ops)
		}
	}

	// Fold in the stream-order oracle's findings (already repro-annotated).
	res.Violations = append(res.Violations, orc.violations...)
	// Partition against the scheme's expected-fail profile: a violation the
	// profile predicts is the adversary demonstrating itself, everything
	// else is a real failure.
	if len(prof.expectFail) > 0 {
		for i := range res.Violations {
			res.Violations[i].Expected = prof.expectsFail(res.Violations[i].Oracle)
		}
	}
	return res
}
