package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"elision/internal/fleet"
	"elision/internal/obs"
	"elision/internal/obs/rollup"
)

// rollupGrid is a small campaign spanning four (scheme, lock) cells with
// two points each — enough for the rollup to exercise multi-run cells,
// abort-cause breakdowns and causality scorecards.
func rollupGrid() []DSConfig {
	base := DSConfig{
		Structure: StructTree, Threads: 4, Size: 64, Mix: MixModerate,
		BudgetCycles: 60_000, Seed: 42, Quantum: 128,
	}
	var grid []DSConfig
	for _, scheme := range []SchemeID{SchemeHLE, SchemeOptSLR} {
		for _, lock := range []LockID{LockTTAS, LockMCS} {
			for _, seed := range []uint64{42, 7} {
				cfg := base
				cfg.Scheme, cfg.Lock, cfg.Seed = scheme, lock, seed
				grid = append(grid, cfg)
			}
		}
	}
	return grid
}

// campaignArtifacts runs the grid at the given worker count on a fresh
// runner and renders the rollup's text and Prometheus artifacts.
func campaignArtifacts(t *testing.T, workers, shards int) (string, string, []Result) {
	t.Helper()
	r := NewRunner()
	r.Fleet.Workers, r.Fleet.Shards = workers, shards
	ru := rollup.New()
	res := r.RunAllRollup(rollupGrid(), ru)
	var text, prom bytes.Buffer
	ru.WriteText(&text)
	ru.WritePrometheus(&prom)
	return text.String(), prom.String(), res
}

// TestCampaignRollupWorkerInvariance: the merged campaign registry, the
// speculation-health scorecard and the Prometheus exposition are
// byte-identical at -j 1, -j 4 and -j GOMAXPROCS — the campaign-scale
// analogue of the seed-digest golden tests.
func TestCampaignRollupWorkerInvariance(t *testing.T) {
	wantText, wantProm, wantRes := campaignArtifacts(t, 1, 1)
	for _, tc := range []struct{ workers, shards int }{
		{4, 5}, {runtime.GOMAXPROCS(0), 0},
	} {
		gotText, gotProm, gotRes := campaignArtifacts(t, tc.workers, tc.shards)
		if gotText != wantText {
			t.Fatalf("-j %d -shards %d changed the text rollup:\n--- want ---\n%s--- got ---\n%s",
				tc.workers, tc.shards, wantText, gotText)
		}
		if gotProm != wantProm {
			t.Fatalf("-j %d -shards %d changed the Prometheus rollup", tc.workers, tc.shards)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("-j %d -shards %d changed the results themselves", tc.workers, tc.shards)
		}
	}
	if err := obs.LintPrometheus(bytes.NewReader([]byte(wantProm))); err != nil {
		t.Fatalf("campaign exposition does not lint: %v", err)
	}
}

// TestRunAllRollupMatchesUnobserved: observed rollup runs return bit-for-bit
// the results of the plain fan-out — attaching the rig must not perturb the
// simulation.
func TestRunAllRollupMatchesUnobserved(t *testing.T) {
	grid := rollupGrid()
	plain := NewRunner()
	want := plain.RunAll(grid)
	observed := NewRunner()
	got := observed.RunAllRollup(grid, rollup.New())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("observed rollup results diverge from unobserved results")
	}
}

// TestRunnerProfileAndMetrics: a profiled campaign records every point, and
// the runner's pooling metrics lint and reflect the pool.
func TestRunnerProfileAndMetrics(t *testing.T) {
	r := NewRunner()
	r.Fleet.Workers = 2
	r.Fleet.Profile = fleet.NewProfile()
	grid := rollupGrid()
	r.RunAllRollup(grid, rollup.New())
	if got := r.Fleet.Profile.Jobs(); got != uint64(len(grid)) {
		t.Fatalf("profile saw %d jobs, want %d", got, len(grid))
	}
	if r.Fleet.Profile.Workers() != 2 {
		t.Fatalf("profile saw %d workers, want 2", r.Fleet.Profile.Workers())
	}

	reg := obs.NewRegistry()
	r.Metrics(reg)
	r.Fleet.Profile.Metrics(reg)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if err := obs.LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("runner metrics do not lint: %v\n%s", err, buf.String())
	}
	hits, misses := r.PrefillStats()
	if hits+misses != uint64(len(grid)) {
		t.Fatalf("prefill hits+misses = %d, want %d", hits+misses, len(grid))
	}
	builds := reg.Counter("harness_instance_builds_total", nil).Value()
	resets := reg.Counter("harness_instance_resets_total", nil).Value()
	if builds+resets != uint64(len(grid)) {
		t.Fatalf("builds+resets = %d, want %d points", builds+resets, len(grid))
	}
	if builds > 2 {
		t.Fatalf("pool of 2 built %d machines, want <= 2", builds)
	}
}
