package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elision/internal/obs"
)

// tickClock is a deterministic virtual clock: every read advances 1ms.
func tickClock() func() int64 {
	var t atomic.Int64
	return func() int64 {
		return t.Add(1_000_000)
	}
}

// syntheticProfile hand-feeds a fixed schedule into a virtual-clock profile:
// 2 workers, 3 jobs, one steal. Exporters must render it byte-identically.
func syntheticProfile() *Profile {
	var now int64
	p := NewProfileClock(func() int64 { return now })
	p.begin(2)
	now = 1_000_000 // 1ms
	s0 := p.jobStart()
	now = 2_000_000
	s1 := p.jobStart()
	now = 5_000_000
	p.jobEnd(0, 0, 0, s0)
	now = 6_000_000
	p.jobEnd(1, 1, 1, s1)
	now = 6_500_000
	s2 := p.jobStart()
	now = 9_000_000
	p.jobEnd(2, 0, 1, s2)
	return p
}

// TestProfileCounts: jobs, steals, workers and wall extent reflect the fed
// schedule, and a nil profile is a safe no-op everywhere.
func TestProfileCounts(t *testing.T) {
	p := syntheticProfile()
	if p.Jobs() != 3 || p.Steals() != 1 || p.Workers() != 2 {
		t.Fatalf("jobs=%d steals=%d workers=%d, want 3/1/2", p.Jobs(), p.Steals(), p.Workers())
	}
	if p.WallNs() != 9_000_000 {
		t.Fatalf("wall = %d, want 9ms", p.WallNs())
	}
	if p.BusyWorkers() != 0 {
		t.Fatalf("busy = %d after all jobs ended, want 0", p.BusyWorkers())
	}

	var nilP *Profile
	nilP.begin(4)
	nilP.jobEnd(0, 0, 0, nilP.jobStart())
	if nilP.Jobs() != 0 || nilP.StatusLine() != "" || nilP.Events() != nil {
		t.Fatal("nil profile must be inert")
	}
	nilP.Metrics(nil)
}

// TestProfileOccupancy: worker 0 is busy 4+2.5 of 9ms, worker 1 is busy 4 of
// 9ms.
func TestProfileOccupancy(t *testing.T) {
	per, mean := syntheticProfile().Occupancy()
	if len(per) != 2 {
		t.Fatalf("per-worker occupancy has %d entries, want 2", len(per))
	}
	want0 := 6.5 / 9.0
	want1 := 4.0 / 9.0
	if diff := per[0] - want0; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("worker 0 occupancy = %f, want %f", per[0], want0)
	}
	if diff := per[1] - want1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("worker 1 occupancy = %f, want %f", per[1], want1)
	}
	if diff := mean - (want0+want1)/2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean occupancy = %f", mean)
	}
}

// TestProfilePerfettoGolden: the trace is a pure function of the recorded
// schedule — golden bytes, valid JSON, balanced B/E pairs per worker lane.
func TestProfilePerfettoGolden(t *testing.T) {
	var a, b bytes.Buffer
	if err := syntheticProfile().WritePerfetto(&a); err != nil {
		t.Fatal(err)
	}
	if err := syntheticProfile().WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("identical schedules rendered different traces")
	}

	var events []obs.TraceEvent
	if err := json.Unmarshal(a.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	depth := map[int]int{}
	names := 0
	steals := 0
	for _, e := range events {
		switch e.Ph {
		case "B":
			depth[e.Tid]++
		case "E":
			depth[e.Tid]--
			if depth[e.Tid] < 0 {
				t.Fatalf("worker %d lane closes a span it never opened", e.Tid)
			}
		case "M":
			names++
		case "i":
			steals++
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("worker %d lane left %d spans open", tid, d)
		}
	}
	if names != 2 {
		t.Fatalf("trace names %d worker lanes, want 2", names)
	}
	if steals != 1 {
		t.Fatalf("trace has %d steal instants, want 1", steals)
	}
	// Spot-check golden fragments: µs timestamps and the steal annotation.
	out := a.String()
	for _, want := range []string{
		`"name":"job 0","ph":"B","ts":1000`,
		`"name":"steal","ph":"i","ts":6500`,
		`"stolen":true`,
		`"name":"worker 1"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace lacks %q:\n%s", want, out)
		}
	}
}

// TestProfileMetricsLint: the fleet_* exposition passes the linter and
// carries the expected aggregates.
func TestProfileMetricsLint(t *testing.T) {
	reg := obs.NewRegistry()
	syntheticProfile().Metrics(reg)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if err := obs.LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("fleet exposition does not lint: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"fleet_jobs_total 3",
		"fleet_steals_total 1",
		"fleet_workers 2",
		"fleet_wall_ns 9000000",
		`fleet_worker_jobs_total{worker="0"} 2`,
		`fleet_shard_claims_total{shard="1"} 2`,
		"fleet_occupancy_pct 58",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet exposition lacks %q:\n%s", want, out)
		}
	}
}

// TestProfileOnRealRun: a profile attached to a real Run records every job
// exactly once, with in-range workers and shards, and marks an event stolen
// exactly when its shard is not its worker. Job 0 is held until another
// worker has stolen a job, so both the owned and the stolen path run.
func TestProfileOnRealRun(t *testing.T) {
	p := NewProfileClock(tickClock())
	const n, workers = 64, 4
	var ran [n]atomic.Int32
	stole := make(chan struct{})
	var once sync.Once
	Run(Config{Workers: workers, Profile: p}, n, func(w, i int) {
		ran[i].Add(1)
		if i == 0 {
			select {
			case <-stole:
			case <-time.After(10 * time.Second):
			}
		} else if w != i/(n/workers) {
			once.Do(func() { close(stole) })
		}
	})
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, ran[i].Load())
		}
	}
	if p.Jobs() != n {
		t.Fatalf("profile saw %d jobs, want %d", p.Jobs(), n)
	}
	events := p.Events()
	if len(events) != n {
		t.Fatalf("profile recorded %d events, want %d", len(events), n)
	}
	seen := map[int]bool{}
	var stolen uint64
	for _, e := range events {
		if seen[e.Job] {
			t.Fatalf("job %d recorded twice", e.Job)
		}
		seen[e.Job] = true
		if e.Worker < 0 || e.Worker >= workers || e.Shard < 0 || e.Shard >= workers {
			t.Fatalf("event out of range: %+v", e)
		}
		if e.End < e.Start {
			t.Fatalf("event ends before it starts: %+v", e)
		}
		if e.Stolen != (e.Shard != e.Worker) {
			t.Fatalf("event stolen=%v but shard %d, worker %d: %+v", e.Stolen, e.Shard, e.Worker, e)
		}
		if e.Shard != e.Job/(n/workers) {
			t.Fatalf("job %d claimed from shard %d, want its owner %d", e.Job, e.Shard, e.Job/(n/workers))
		}
		if e.Stolen {
			stolen++
		}
	}
	if p.Steals() == 0 || p.Steals() != stolen {
		t.Fatalf("steals = %d, stolen events = %d; want equal and > 0", p.Steals(), stolen)
	}
	// A second Run accumulates into the same profile.
	Run(Config{Workers: 2, Profile: p}, 8, func(_, _ int) {})
	if p.Jobs() != n+8 {
		t.Fatalf("profile saw %d jobs after second run, want %d", p.Jobs(), n+8)
	}
}

// TestTTYProgressStatus: the status suffix renders, pads over stale
// characters, and finishes with a newline.
func TestTTYProgressStatus(t *testing.T) {
	var buf bytes.Buffer
	status := "busy 3/4 steals 2"
	prog := TTYProgressStatus(&buf, "points", func() string { s := status; status = ""; return s })
	prog(1, 2)
	prog(2, 2)
	out := buf.String()
	if !strings.Contains(out, "1/2 points [busy 3/4 steals 2]") {
		t.Errorf("status suffix missing: %q", out)
	}
	last := out[strings.LastIndex(out, "\r")+1:]
	if !strings.HasPrefix(last, "  2/2 points") || !strings.HasSuffix(out, "\n") {
		t.Errorf("final line malformed: %q", last)
	}
	// The shorter second line must be padded past the first line's width.
	if len(strings.TrimSuffix(last, "\n")) < len("  1/2 points [busy 3/4 steals 2]") {
		t.Errorf("stale characters not erased: %q", last)
	}
}

// TestProfileStatusLine: live occupancy string shape.
func TestProfileStatusLine(t *testing.T) {
	var now int64
	p := NewProfileClock(func() int64 { return now })
	p.begin(4)
	p.jobStart()
	p.jobStart()
	if got := p.StatusLine(); got != "busy 2/4" {
		t.Fatalf("StatusLine = %q, want \"busy 2/4\"", got)
	}
	now = 10
	p.jobEnd(0, 0, 1, 0)
	if got := p.StatusLine(); got != "busy 1/4 steals 1" {
		t.Fatalf("StatusLine = %q", got)
	}
}
