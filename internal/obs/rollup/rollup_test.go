package rollup

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"elision/internal/obs"
	"elision/internal/obs/causality"
)

// synthRun builds a finished collector (with causality engine attached) fed
// a deterministic event stream derived from seed.
func synthRun(scheme, lock string, seed int64) *obs.Collector {
	col := obs.NewCollector(scheme, lock, 10_000)
	causality.Attach(col, causality.Config{})
	col.SetLockLines([]int{3})
	rng := rand.New(rand.NewSource(seed))
	when := uint64(0)
	for i := 0; i < 50; i++ {
		when += uint64(rng.Intn(500) + 1)
		tid := rng.Intn(4)
		switch rng.Intn(3) {
		case 0:
			col.Observe(&obs.Event{Kind: obs.KindTxCommit, When: when, Tid: tid, ReadLines: rng.Intn(20), WriteLines: rng.Intn(8)})
			col.Observe(op(when, tid, true, uint64(rng.Intn(1000)), rng.Intn(3)))
		case 1:
			col.Observe(&obs.Event{
				Kind: obs.KindTxAbort, When: when, Tid: tid, Cause: []string{"conflict", "capacity", "spurious"}[rng.Intn(3)],
				ReadLines: rng.Intn(20), WriteLines: rng.Intn(8),
				ConflictLine: rng.Intn(6), ConflictTid: (tid + 1) % 4,
				ConflictWhen: when - 1,
			})
		default:
			col.Observe(&obs.Event{Kind: obs.KindLockAcquire, When: when, Tid: tid})
			col.Observe(op(when+100, tid, false, uint64(rng.Intn(1000)), rng.Intn(3)))
			col.Observe(&obs.Event{Kind: obs.KindLockRelease, When: when + 100, Tid: tid})
		}
	}
	col.Finish(when + 1)
	return col
}

// op is a completed critical section of the given latency and retries.
func op(when uint64, tid int, spec bool, latency uint64, retries int) *obs.Event {
	return &obs.Event{Kind: obs.KindOp, Start: when - latency, When: when, Tid: tid, Spec: spec, Attempts: retries + 1}
}

// synthRuns is a fixed fleet of runs across four cells.
func synthRuns() []*obs.Collector {
	var cols []*obs.Collector
	for i, key := range []struct{ scheme, lock string }{
		{"hle", "mcs"}, {"hle", "ttas"}, {"opt-slr", "mcs"}, {"opt-slr", "ttas"},
	} {
		for s := 0; s < 4; s++ {
			cols = append(cols, synthRun(key.scheme, key.lock, int64(i*100+s)))
		}
	}
	return cols
}

// render rolls the runs up in the given order and renders both artifacts.
func render(t *testing.T, cols []*obs.Collector, order []int, parallel bool) (string, string) {
	t.Helper()
	c := New()
	if parallel {
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(col *obs.Collector) {
				defer wg.Done()
				c.AddRun(col)
			}(cols[i])
		}
		wg.Wait()
	} else {
		for _, i := range order {
			c.AddRun(cols[i])
		}
	}
	var text, prom bytes.Buffer
	c.WriteText(&text)
	c.WritePrometheus(&prom)
	return text.String(), prom.String()
}

// TestRollupOrderIndependent: any add order — including fully concurrent —
// produces byte-identical text and Prometheus artifacts.
func TestRollupOrderIndependent(t *testing.T) {
	cols := synthRuns()
	fwd := make([]int, len(cols))
	rev := make([]int, len(cols))
	for i := range cols {
		fwd[i] = i
		rev[i] = len(cols) - 1 - i
	}
	wantText, wantProm := render(t, cols, fwd, false)
	gotText, gotProm := render(t, cols, rev, false)
	if gotText != wantText {
		t.Fatalf("reversed add order changed the text rollup:\n--- want ---\n%s--- got ---\n%s", wantText, gotText)
	}
	if gotProm != wantProm {
		t.Fatal("reversed add order changed the Prometheus rollup")
	}
	for trial := 0; trial < 3; trial++ {
		gotText, gotProm = render(t, cols, fwd, true)
		if gotText != wantText || gotProm != wantProm {
			t.Fatalf("concurrent adds changed the rollup (trial %d)", trial)
		}
	}
}

// TestRollupPrometheusLints: the campaign exposition passes the linter.
func TestRollupPrometheusLints(t *testing.T) {
	cols := synthRuns()
	c := New()
	for _, col := range cols {
		c.AddRun(col)
	}
	var prom bytes.Buffer
	c.WritePrometheus(&prom)
	if err := obs.LintPrometheus(bytes.NewReader(prom.Bytes())); err != nil {
		t.Fatalf("campaign exposition does not lint: %v\n%s", err, prom.String())
	}
	if !strings.Contains(prom.String(), `campaign_runs_total{scheme="hle",lock="mcs"} 4`) {
		t.Errorf("exposition lacks campaign_runs_total per cell:\n%s", prom.String())
	}
}

// TestRollupScorecard: cell tallies equal the sums of the fed runs and the
// scorecard surfaces them.
func TestRollupScorecard(t *testing.T) {
	c := New()
	cols := []*obs.Collector{synthRun("hle", "mcs", 1), synthRun("hle", "mcs", 2)}
	var wantCommits uint64
	for _, col := range cols {
		wantCommits += col.Reg.Counter(obs.MetricCommits, col.BaseLabels()).Value()
		c.AddRun(col)
	}
	card := c.Cell(Key{Scheme: "hle", Lock: "mcs"})
	if card.Runs != 2 {
		t.Fatalf("Runs = %d, want 2", card.Runs)
	}
	if card.Commits != wantCommits {
		t.Fatalf("Commits = %d, want %d", card.Commits, wantCommits)
	}
	if card.Ops != card.SpecOps+card.NonSpecOps {
		t.Fatalf("Ops = %d but spec+nonspec = %d", card.Ops, card.SpecOps+card.NonSpecOps)
	}
	if card.CausalRuns != 2 {
		t.Fatalf("CausalRuns = %d, want 2", card.CausalRuns)
	}
	var total uint64
	for _, n := range card.AbortsByCause {
		total += n
	}
	if total != card.Aborts {
		t.Fatalf("AbortsByCause sums to %d, Aborts = %d", total, card.Aborts)
	}

	var text bytes.Buffer
	c.WriteText(&text)
	for _, want := range []string{"speculation health:", "abort causes:", "hle", "mcs"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("scorecard lacks %q:\n%s", want, text.String())
		}
	}
}

// TestRollupHotLinesMerged: per-cell hot lines accumulate across runs.
func TestRollupHotLinesMerged(t *testing.T) {
	c := New()
	a, b := synthRun("hle", "mcs", 1), synthRun("hle", "mcs", 2)
	c.AddRun(a)
	c.AddRun(b)
	hot := c.HotLines(Key{Scheme: "hle", Lock: "mcs"})
	if got, want := hot.Total(), a.Hot.Total()+b.Hot.Total(); got != want {
		t.Fatalf("merged hot-line total = %d, want %d", got, want)
	}
	if c.HotLines(Key{Scheme: "nope", Lock: "nope"}) != nil {
		t.Fatal("absent key should report nil hot lines")
	}
}

// TestRollupEmptyShard: a campaign that received no runs — the fold of an
// empty fleet shard — must still render valid, lintable artifacts instead of
// panicking or emitting malformed exposition.
func TestRollupEmptyShard(t *testing.T) {
	c := New()
	if c.Runs() != 0 {
		t.Fatalf("fresh campaign reports %d runs", c.Runs())
	}
	if keys := c.Keys(); len(keys) != 0 {
		t.Fatalf("empty campaign has keys %v", keys)
	}
	if card := c.Cell(Key{Scheme: "hle", Lock: "mcs"}); card.Runs != 0 {
		t.Fatalf("absent cell scorecard non-zero: %+v", card)
	}
	var text, prom bytes.Buffer
	c.WriteText(&text)
	c.WritePrometheus(&prom)
	if err := obs.LintPrometheus(bytes.NewReader(prom.Bytes())); err != nil {
		t.Fatalf("empty exposition does not lint: %v\n%s", err, prom.String())
	}
}

// TestRollupSingleJobCampaign: a one-run campaign's cell must reproduce that
// run's own registry tallies exactly — folding one shard is the identity.
func TestRollupSingleJobCampaign(t *testing.T) {
	col := synthRun("opt-slr", "mcs", 9)
	c := New()
	c.AddRun(col)
	if c.Runs() != 1 {
		t.Fatalf("Runs = %d, want 1", c.Runs())
	}
	keys := c.Keys()
	if len(keys) != 1 || keys[0] != (Key{Scheme: "opt-slr", Lock: "mcs"}) {
		t.Fatalf("Keys = %v, want exactly the fed cell", keys)
	}
	card := c.Cell(keys[0])
	labels := col.BaseLabels()
	if want := col.Reg.Counter(obs.MetricCommits, labels).Value(); card.Commits != want {
		t.Fatalf("Commits = %d, want the single run's %d", card.Commits, want)
	}
	if card.Runs != 1 || card.CausalRuns != 1 {
		t.Fatalf("Runs/CausalRuns = %d/%d, want 1/1", card.Runs, card.CausalRuns)
	}
	if got, want := c.HotLines(keys[0]).Total(), col.Hot.Total(); got != want {
		t.Fatalf("hot-line total = %d, want %d", got, want)
	}
	var prom bytes.Buffer
	c.WritePrometheus(&prom)
	if err := obs.LintPrometheus(bytes.NewReader(prom.Bytes())); err != nil {
		t.Fatalf("single-run exposition does not lint: %v", err)
	}
	if !strings.Contains(prom.String(), `campaign_runs_total{scheme="opt-slr",lock="mcs"} 1`) {
		t.Errorf("exposition lacks the single-run cell counter:\n%s", prom.String())
	}
}
