// Package fleet is the campaign orchestrator: it fans independent,
// deterministic jobs (benchmark points, fuzz cases, STAMP runs) out across
// host goroutines with work stealing and per-worker reusable state.
//
// The contract every consumer relies on: the set of executed jobs, the
// worker-to-job mapping's effect on results, and any aggregation built with
// this package are independent of worker count and completion order. A
// campaign's merged output must be byte-identical at -j 1 and -j N, which
// is why results are always keyed by job index, never by arrival.
//
// Each worker owns one shard — a contiguous index range claimed with one
// atomic add per job. A worker drains its own shard first (cheap,
// contention-free) and then steals from whichever shard has the most work
// left, so a straggler shard full of slow jobs is finished cooperatively
// instead of serializing the tail of the campaign.
package fleet

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Config parameterizes a fleet run.
type Config struct {
	// Workers is the number of host goroutines (0 = one per host CPU).
	Workers int
	// Progress, when non-nil, is called after each completed job with the
	// number done so far and the total. Calls are serialized and done is
	// strictly increasing, but which job just finished is unspecified —
	// progress is fleet-level, never per-job.
	Progress func(done, total int)
	// Profile, when non-nil, records the fleet's own execution — job spans
	// per worker, shard claims, steals, occupancy — without touching job
	// results. One Profile may be shared across several Run calls.
	Profile *Profile
}

// Flags validates the conventional -j command-line value and returns the
// Config it selects. j == 0 picks one worker per host CPU; a negative value
// is an error (the cmd tools exit non-zero instead of guessing).
func Flags(j int) (Config, error) {
	if j < 0 {
		return Config{}, fmt.Errorf("fleet: -j must be >= 0 (0 = all host CPUs), got %d", j)
	}
	return Config{Workers: j}, nil
}

// WorkerCount resolves the number of workers a Run with n jobs will use:
// Config.Workers defaulted to the host CPU count, capped at n. Callers
// sizing per-worker state (instance pools) use this before Run.
func (c Config) WorkerCount(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n > 0 && w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shard is one worker's claimable index range [next, end). Padded so
// adjacent shards' claim counters never share a cache line.
type shard struct {
	next atomic.Int64
	end  int64
	_    [48]byte
}

// remaining reports how many unclaimed indices the shard holds.
func (s *shard) remaining() int64 {
	r := s.end - s.next.Load()
	if r < 0 {
		return 0
	}
	return r
}

// claim takes the next index from the shard, or -1 when drained. Claiming
// is one atomic add, so an index is never handed out twice.
func (s *shard) claim() int64 {
	i := s.next.Add(1) - 1
	if i >= s.end {
		return -1
	}
	return i
}

// Run executes job(worker, index) exactly once for every index in [0, n),
// across the configured workers. worker identifies the executing goroutine
// in [0, WorkerCount(n)) so jobs can reuse per-worker state (pooled
// simulator instances). Run returns when every job has completed.
//
// Determinism: which worker runs which job depends on host scheduling, so
// job must derive its result only from its index (and per-worker state must
// not leak into results — a pooled instance has to produce the same result
// a fresh one would).
func Run(cfg Config, n int, job func(worker, index int)) {
	if n <= 0 {
		return
	}
	workers := cfg.WorkerCount(n)
	shards := make([]shard, workers)
	for w := range shards {
		// Contiguous ranges: worker w owns [w*n/workers, (w+1)*n/workers).
		shards[w].next.Store(int64(w * n / workers))
		shards[w].end = int64((w + 1) * n / workers)
	}

	var (
		progressMu sync.Mutex
		done       int
	)
	// Progress runs under the lock, so calls are serialized and each sees
	// the next done value.
	finished := func() {
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		cfg.Progress(done, n)
	}

	cfg.Profile.begin(workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, src := next(shards, w)
				if i < 0 {
					return
				}
				start := cfg.Profile.jobStart()
				job(w, int(i))
				cfg.Profile.jobEnd(int(i), w, src, start)
				finished()
			}
		}(w)
	}
	wg.Wait()
}

// next claims the next index for worker w: first from its own shard w,
// then by stealing from the shard with the most remaining work. Returns
// index -1 when every shard is drained, else the claimed index and the
// shard it came from (a steal when that is not w).
func next(shards []shard, w int) (index int64, src int) {
	if i := shards[w].claim(); i >= 0 {
		return i, w
	}
	for {
		victim, best := -1, int64(0)
		for s := range shards {
			if r := shards[s].remaining(); r > best {
				victim, best = s, r
			}
		}
		if victim < 0 {
			return -1, -1
		}
		if i := shards[victim].claim(); i >= 0 {
			return i, victim
		}
		// Lost the race for the victim's last index; rescan.
	}
}

// Collect runs job for every index and returns the results in index order:
// the parallel, order-independent equivalent of a sequential map. Worker
// ids are not exposed; use Run directly when jobs need per-worker state.
func Collect[T any](cfg Config, n int, job func(index int) T) []T {
	out := make([]T, n)
	Run(cfg, n, func(_, i int) { out[i] = job(i) })
	return out
}

// TTYProgressStatus returns a Progress callback rendering a carriage-return
// progress line ("\r  done/total label") to w, with a newline once the
// campaign completes — the shared progress reporter of the cmd tools. When
// status is non-nil and returns a non-empty string, it is appended in
// brackets ("\r  done/total label [status]"). The cmd tools feed it live
// fleet state — worker occupancy from Profile.StatusLine, prefill-cache hit
// rates — so a long campaign shows what the fleet is doing, not just how far
// it is. The line is padded so a shrinking status never leaves stale
// characters. When w is a file that is not a terminal (a CI log, a
// redirected run), nothing would erase the redraws, so only each campaign's
// final line is written. Run serializes its Progress calls; the callback
// also serializes itself, so one reporter can be shared between concurrent
// Runs.
func TTYProgressStatus(w io.Writer, label string, status func() string) func(done, total int) {
	redraw := true
	if f, ok := w.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
			redraw = false
		}
	}
	var mu sync.Mutex
	width := 0
	return func(done, total int) {
		if !redraw && done < total {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		line := fmt.Sprintf("  %d/%d %s", done, total, label)
		if status != nil {
			if s := status(); s != "" {
				line += " [" + s + "]"
			}
		}
		if !redraw {
			fmt.Fprintln(w, line)
			return
		}
		// Pad to the longest line ever drawn, not just the previous one: a
		// status like "busy N/M steals K" shrinks and regrows between
		// redraws, and padding against only the last width can leave stale
		// characters from an earlier, longer draw on the terminal row.
		if len(line) > width {
			width = len(line)
		}
		fmt.Fprintf(w, "\r%s%s", line, spaces(width-len(line)))
		if done == total {
			fmt.Fprintln(w)
			width = 0
		}
	}
}

// spaces returns n spaces (used for status-line erasure).
func spaces(n int) string {
	return strings.Repeat(" ", n)
}
