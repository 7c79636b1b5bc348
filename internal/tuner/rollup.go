package tuner

import (
	"elision/internal/harness"
	"elision/internal/obs/rollup"
)

// ObservedRollup re-runs the search's headline points — the tuned winner plus
// every fixed-policy baseline, over the same seed spread at the final
// budget — with full observability attached (collector, abort-causality
// engine, flight recorder) and folds them into a campaign rollup. The search
// itself stays unobserved; this is the post-hoc pass behind cmd/tune -prom.
// Folding is order-independent, so the rollup's artifacts are byte-identical
// at any worker count.
func ObservedRollup(cfg Config, res Result) *rollup.Campaign {
	cfg = cfg.withDefaults()
	schemes := append([]harness.SchemeID{cfg.Scheme}, baselineSchemes...)
	acfgs := make([]string, len(schemes))
	acfgs[0] = res.Winner.Config
	r := harness.NewRunner()
	r.Fleet = cfg.Fleet
	r.Flight = true
	ru := rollup.New()
	r.RunAllRollup(cfg.points(schemes, acfgs, cfg.FinalBudget), ru)
	return ru
}
