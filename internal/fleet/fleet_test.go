package fleet

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEachIndexExactlyOnce: the work-stealing shards must hand out every
// index exactly once, at any worker/shard geometry.
func TestRunEachIndexExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers, shards int }{
		{0, 4, 0}, {1, 8, 3}, {7, 1, 1}, {100, 4, 4}, {100, 8, 32},
		{100, 16, 1}, {33, 5, 7}, {1000, 8, 0},
	} {
		counts := make([]int32, tc.n)
		Run(Config{Workers: tc.workers, Shards: tc.shards}, tc.n, func(_, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d shards=%d: index %d ran %d times",
					tc.n, tc.workers, tc.shards, i, c)
			}
		}
	}
}

// TestRunWorkerIDsInRange: worker ids must stay below WorkerCount so callers
// can index per-worker instance pools.
func TestRunWorkerIDsInRange(t *testing.T) {
	cfg := Config{Workers: 6}
	max := cfg.WorkerCount(50)
	var bad atomic.Int32
	Run(cfg, 50, func(w, _ int) {
		if w < 0 || w >= max {
			bad.Store(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("worker id escaped [0,%d)", max)
	}
}

// TestStealingDrainsStragglerShard: one shard holds jobs 100x slower than
// the rest; with stealing, other workers must execute some of its indices.
func TestStealingDrainsStragglerShard(t *testing.T) {
	const n = 64
	// Shard 0 covers [0, 16) with 4 shards; make those jobs slow.
	workersSeen := make([]int32, n)
	Run(Config{Workers: 4, Shards: 4}, n, func(w, i int) {
		if i < 16 {
			time.Sleep(2 * time.Millisecond)
		}
		atomic.StoreInt32(&workersSeen[i], int32(w)+1)
	})
	distinct := map[int32]bool{}
	for i := 0; i < 16; i++ {
		distinct[workersSeen[i]] = true
	}
	if len(distinct) < 2 {
		t.Skip("no steal observed (host scheduling); not a correctness failure")
	}
}

// TestMergerSortsOutOfOrderCompletion injects adversarially reversed
// completion order and asserts the merged output is in key order — the
// property that makes campaign artifacts byte-identical at any -j.
func TestMergerSortsOutOfOrderCompletion(t *testing.T) {
	const n = 50
	var g Merger[string]
	var mu sync.Mutex
	order := rand.New(rand.NewSource(7)).Perm(n) // completion order != key order
	var wg sync.WaitGroup
	for _, i := range order {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mu.Lock() // serialize adds in the shuffled order
			g.Add(i, string(rune('a'+i%26)))
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	got := g.Sorted()
	if len(got) != n {
		t.Fatalf("merger holds %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if want := string(rune('a' + i%26)); v != want {
			t.Fatalf("position %d = %q, want %q (arrival order leaked into merge)", i, v, want)
		}
	}
}

// TestCollectIndexOrder: results land at their input index regardless of
// which worker finished first.
func TestCollectIndexOrder(t *testing.T) {
	got := Collect(Config{Workers: 8, Shards: 16}, 100, func(i int) int {
		if i%3 == 0 {
			time.Sleep(time.Millisecond) // perturb completion order
		}
		return i * i
	})
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Collect[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestProgressMonotonicAndComplete: done must step 1..n exactly once each,
// serialized.
func TestProgressMonotonicAndComplete(t *testing.T) {
	const n = 40
	var seen []int
	Run(Config{Workers: 8, Progress: func(done, total int) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		seen = append(seen, done) // safe: Progress calls are serialized
	}}, n, func(_, _ int) {})
	if len(seen) != n {
		t.Fatalf("progress called %d times, want %d", len(seen), n)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress[%d] = %d, want %d (not monotonic)", i, d, i+1)
		}
	}
}

// TestFlagsValidation: negative -j / -shards are rejected; 0 means auto.
func TestFlagsValidation(t *testing.T) {
	if _, err := Flags(-1, 0); err == nil || !strings.Contains(err.Error(), "-j") {
		t.Fatalf("Flags(-1, 0) error = %v, want -j complaint", err)
	}
	if _, err := Flags(0, -2); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("Flags(0, -2) error = %v, want -shards complaint", err)
	}
	cfg, err := Flags(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w := cfg.WorkerCount(1000); w < 1 {
		t.Fatalf("WorkerCount = %d, want >= 1", w)
	}
	if cfg2, err := Flags(3, 9); err != nil || cfg2.Workers != 3 || cfg2.Shards != 9 {
		t.Fatalf("Flags(3, 9) = %+v, %v", cfg2, err)
	}
}

// TestTTYProgress renders the final newline exactly at completion.
func TestTTYProgress(t *testing.T) {
	var sb strings.Builder
	p := TTYProgressStatus(&sb, "points", nil)
	p(1, 2)
	p(2, 2)
	out := sb.String()
	if !strings.Contains(out, "1/2 points") || !strings.Contains(out, "2/2 points") {
		t.Fatalf("unexpected progress output %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("no trailing newline after completion: %q", out)
	}
}

// TestProgressToFileWritesFinalLineOnly: reporting to a file that is not a
// terminal skips the redraws, leaving one plain line per campaign.
func TestProgressToFileWritesFinalLineOnly(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "progress")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	Run(Config{Workers: 4, Progress: TTYProgressStatus(f, "points", nil)}, 50, func(_, _ int) {})
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(out), "  50/50 points\n"; got != want {
		t.Fatalf("progress file holds %q, want %q", got, want)
	}
}

// terminalRow replays carriage-return-delimited writes onto an emulated
// terminal row, the way a TTY renders them: '\r' homes the cursor, '\n'
// clears the row state, anything else overwrites in place.
func terminalRow(out string) string {
	var row []byte
	cur := 0
	for i := 0; i < len(out); i++ {
		switch out[i] {
		case '\r':
			cur = 0
		case '\n':
			row, cur = row[:0], 0
		default:
			if cur < len(row) {
				row[cur] = out[i]
			} else {
				row = append(row, out[i])
			}
			cur++
		}
	}
	return string(row)
}

// TestTTYProgressStatusClearsShrinkingLine: a status suffix that shrinks
// and regrows between redraws must never leave stale characters from an
// earlier, longer draw on the terminal row.
func TestTTYProgressStatusClearsShrinkingLine(t *testing.T) {
	statuses := []string{
		"busy 12/16 steals 104 prefill 97%",
		"busy 4/16",
		"busy 9/16 steals 11",
		"",
		"busy 16/16 steals 2048 prefill 100%",
		"busy 1/16",
	}
	i := 0
	var sb strings.Builder
	p := TTYProgressStatus(&sb, "points", func() string {
		s := statuses[i%len(statuses)]
		i++
		return s
	})
	for done := 1; done < len(statuses); done++ {
		p(done, len(statuses))
		// After each redraw the visible row must be the current line plus
		// trailing blanks only — no residue of a previous longer status.
		row := terminalRow(sb.String())
		want := fmt.Sprintf("  %d/%d points", done, len(statuses))
		if s := statuses[(i-1)%len(statuses)]; s != "" {
			want += " [" + s + "]"
		}
		if got := strings.TrimRight(row, " "); got != want {
			t.Fatalf("redraw %d left stale characters: row %q, want %q", done, got, want)
		}
	}
	p(len(statuses), len(statuses))
	if !strings.HasSuffix(sb.String(), "\n") {
		t.Fatalf("no trailing newline after completion: %q", sb.String())
	}
}
