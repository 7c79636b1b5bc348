package harness

import (
	"fmt"

	"elision/internal/fleet"
	"elision/internal/stamp"
)

// StampScale sets the STAMP sweep geometry.
type StampScale struct {
	// Factor scales each kernel's input size.
	Factor stamp.Factor
	// Threads is the concurrency level (the paper's Figure 11 uses 8).
	Threads int
	Seed    uint64
	Quantum uint64
}

// DefaultStampScale mirrors the paper's maximum-concurrency configuration.
func DefaultStampScale() StampScale {
	return StampScale{Factor: 2, Threads: 8, Seed: 42, Quantum: 128}
}

// TestStampScale shrinks the sweep for tests.
func TestStampScale() StampScale {
	return StampScale{Factor: 1, Threads: 8, Seed: 42, Quantum: 128}
}

// Figure11 regenerates §7.2: the runtime of each STAMP application under
// every scheme, normalized to the plain non-speculative lock of the same
// type (lower is better). One table per lock. The STAMP runs are not
// benchmark points, so they bypass r's instance pool and memo cache, but
// fan out under r's fleet config: its workers, progress and profile.
func Figure11(r *Runner, sc StampScale) ([]Table, error) {
	apps := stamp.Names()
	schemes := []SchemeID{SchemeStandard, SchemeHLE, SchemeHLESCM, SchemeOptSLR, SchemeSLRSCM, SchemeHLERetries}
	lockIDs := []LockID{LockTTAS, LockMCS}

	var cfgs []stamp.Config
	for _, app := range apps {
		for _, lock := range lockIDs {
			for _, s := range schemes {
				cfgs = append(cfgs, stamp.Config{
					App: app, Scheme: string(s), Lock: string(lock),
					Threads: sc.Threads, Factor: sc.Factor, Seed: sc.Seed, Quantum: sc.Quantum,
				})
			}
		}
	}

	// Fleet fan-out with index-keyed results: the first error in input order
	// is reported regardless of completion order.
	type runOut struct {
		res stamp.Result
		err error
	}
	outs := fleet.Collect(r.Fleet, len(cfgs),
		func(i int) runOut {
			res, err := stamp.Run(cfgs[i])
			return runOut{res, err}
		})
	results := make(map[stamp.Config]stamp.Result, len(cfgs))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		results[cfgs[i]] = o.res
	}

	get := func(app string, s SchemeID, l LockID) stamp.Result {
		return results[stamp.Config{
			App: app, Scheme: string(s), Lock: string(l),
			Threads: sc.Threads, Factor: sc.Factor, Seed: sc.Seed, Quantum: sc.Quantum,
		}]
	}

	var tables []Table
	for _, lock := range lockIDs {
		t := Table{
			Title: fmt.Sprintf("Figure 11: STAMP normalized runtime (lower is better), %d threads — %s lock",
				sc.Threads, lock),
			Columns: []string{"app", "standard", "hle", "hle-scm", "opt-slr", "slr-scm", "hle-retries"},
		}
		for _, app := range apps {
			base := get(app, SchemeStandard, lock)
			row := []string{app}
			for _, s := range []SchemeID{SchemeStandard, SchemeHLE, SchemeHLESCM, SchemeOptSLR, SchemeSLRSCM, SchemeHLERetries} {
				res := get(app, s, lock)
				row = append(row, F2(ratio(float64(res.Cycles), float64(base.Cycles))))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
