package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"elision/internal/obs"
)

// Profile is the fleet's own observability: while the simulations it runs
// are deterministic virtual-time machines, the fleet itself lives in host
// wall time — shard claims, steals, worker occupancy. A Profile attached
// through Config.Profile records one JobEvent per executed job plus live
// counters, and exports two ways: registry metrics (Metrics) and a
// host-time Perfetto trace with one lane per worker (WritePerfetto).
//
// One Profile may span several Run calls (a campaign of rounds): workers
// and jobs accumulate, and the wall clock runs from the first Run to the
// last recorded job. All methods are safe for concurrent use. The trace
// and occupancy numbers are a faithful record of one host execution —
// unlike the simulation metrics rolled up from the jobs themselves, they
// legitimately vary across runs and worker counts (that is what they
// measure), so determinism tests inject a virtual clock via NewProfileClock
// and pin only the exporters' rendering.
type Profile struct {
	clock func() int64 // monotonic ns since the profile epoch

	mu      sync.Mutex
	events  []JobEvent
	workers int
	epoch   time.Time
	started bool
	wallNs  int64

	jobs   atomic.Uint64
	steals atomic.Uint64
	busy   atomic.Int64
}

// JobEvent is one executed job: who ran it, which shard it came from,
// whether it was stolen, and its host-time span (ns since the profile
// epoch).
type JobEvent struct {
	// Job is the job index within its Run.
	Job int
	// Worker is the executing worker id.
	Worker int
	// Shard is the shard the index was claimed from: the worker that owns
	// the job's index range.
	Shard int
	// Stolen marks a claim from another worker's shard (Shard != Worker).
	Stolen bool
	// Start and End are ns since the profile epoch.
	Start, End int64
}

// NewProfile returns a profile on the host monotonic clock.
func NewProfile() *Profile {
	p := &Profile{}
	p.clock = func() int64 {
		p.mu.Lock()
		epoch := p.epoch
		p.mu.Unlock()
		return time.Since(epoch).Nanoseconds()
	}
	return p
}

// NewProfileClock returns a profile on a caller-supplied clock (ns since an
// arbitrary epoch) — deterministic tests inject a virtual clock here.
func NewProfileClock(clock func() int64) *Profile {
	return &Profile{clock: clock}
}

// begin notes a Run starting with the given worker count and job count.
// Safe on a nil receiver.
func (p *Profile) begin(workers int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.started {
		p.started = true
		p.epoch = time.Now()
	}
	if workers > p.workers {
		p.workers = workers
	}
	p.mu.Unlock()
}

// jobStart marks worker w picking up a job and returns the start stamp.
// Safe on a nil receiver (returns 0).
func (p *Profile) jobStart() int64 {
	if p == nil {
		return 0
	}
	p.busy.Add(1)
	return p.clock()
}

// jobEnd records the completed job, claimed by worker from shard. Safe on
// a nil receiver.
func (p *Profile) jobEnd(job, worker, shard int, start int64) {
	if p == nil {
		return
	}
	end := p.clock()
	stolen := shard != worker
	p.busy.Add(-1)
	p.jobs.Add(1)
	if stolen {
		p.steals.Add(1)
	}
	p.mu.Lock()
	p.events = append(p.events, JobEvent{
		Job: job, Worker: worker, Shard: shard, Stolen: stolen, Start: start, End: end,
	})
	if end > p.wallNs {
		p.wallNs = end
	}
	p.mu.Unlock()
}

// BusyWorkers returns the number of workers currently inside a job — the
// live occupancy gauge TTY progress lines sample. Safe on a nil receiver.
func (p *Profile) BusyWorkers() int {
	if p == nil {
		return 0
	}
	return int(p.busy.Load())
}

// Workers returns the widest worker count any profiled Run used. Safe on a
// nil receiver.
func (p *Profile) Workers() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers
}

// Jobs returns the number of completed jobs. Safe on a nil receiver.
func (p *Profile) Jobs() uint64 {
	if p == nil {
		return 0
	}
	return p.jobs.Load()
}

// Steals returns the number of jobs claimed from another worker's shard.
// Safe on a nil receiver.
func (p *Profile) Steals() uint64 {
	if p == nil {
		return 0
	}
	return p.steals.Load()
}

// WallNs returns the profile's extent: the latest job-completion stamp.
func (p *Profile) WallNs() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wallNs
}

// Events returns the recorded jobs sorted by (Start, End, Worker, Job) — a
// deterministic function of the recorded schedule, so exporters render
// byte-identically from equal event sets.
func (p *Profile) Events() []JobEvent {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]JobEvent, len(p.events))
	copy(out, p.events)
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Job < b.Job
	})
	return out
}

// Occupancy reports each worker's busy time as a fraction of the profile's
// wall extent, indexed by worker id, plus the fleet-wide mean.
func (p *Profile) Occupancy() (perWorker []float64, mean float64) {
	if p == nil {
		return nil, 0
	}
	events := p.Events()
	workers := p.Workers()
	wall := p.WallNs()
	if workers == 0 || wall <= 0 {
		return nil, 0
	}
	busyNs := make([]int64, workers)
	for _, e := range events {
		if e.Worker >= 0 && e.Worker < workers {
			busyNs[e.Worker] += e.End - e.Start
		}
	}
	perWorker = make([]float64, workers)
	var total float64
	for w, ns := range busyNs {
		perWorker[w] = float64(ns) / float64(wall)
		total += perWorker[w]
	}
	return perWorker, total / float64(workers)
}

// Metrics registers the profile's aggregates into reg under the fleet_*
// namespace: jobs, steals, workers, wall time, the per-job host-latency
// histogram, per-worker busy time and job counts, and per-shard claim
// counts. Reg is typically a dedicated fleet registry written alongside the
// sim rollup in one Prometheus exposition.
func (p *Profile) Metrics(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	events := p.Events()
	reg.Counter("fleet_jobs_total", nil).Add(p.Jobs())
	reg.Counter("fleet_steals_total", nil).Add(p.Steals())
	reg.Gauge("fleet_workers", nil).Set(int64(p.Workers()))
	reg.Gauge("fleet_wall_ns", nil).Set(p.WallNs())
	durations := reg.Histogram("fleet_job_duration_ns", nil)
	type wstat struct {
		jobs uint64
		busy int64
	}
	perWorker := map[int]*wstat{}
	perShard := map[int]uint64{}
	for _, e := range events {
		durations.Observe(uint64(e.End - e.Start))
		ws := perWorker[e.Worker]
		if ws == nil {
			ws = &wstat{}
			perWorker[e.Worker] = ws
		}
		ws.jobs++
		ws.busy += e.End - e.Start
		perShard[e.Shard]++
	}
	for w, ws := range perWorker {
		ls := obs.L("worker", strconv.Itoa(w))
		reg.Counter("fleet_worker_jobs_total", ls).Add(ws.jobs)
		reg.Gauge("fleet_worker_busy_ns", ls).Set(ws.busy)
	}
	for s, n := range perShard {
		reg.Counter("fleet_shard_claims_total", obs.L("shard", strconv.Itoa(s))).Add(n)
	}
	if _, mean := p.Occupancy(); mean > 0 {
		reg.Gauge("fleet_occupancy_pct", nil).Set(int64(100 * mean))
	}
}

// WritePerfetto writes the profile as a Chrome trace-event JSON array: one
// lane per worker (tid = worker id), one slice per job (ts in µs of host
// time) with shard/steal arguments, steal instants, and worker-name
// metadata. The output is a pure sorted function of the recorded events.
func (p *Profile) WritePerfetto(w io.Writer) error {
	events := p.Events()
	out := make([]obs.TraceEvent, 0, 2*len(events)+p.Workers())
	workers := map[int]bool{}
	for _, e := range events {
		workers[e.Worker] = true
		args := map[string]any{"job": e.Job, "shard": e.Shard}
		if e.Stolen {
			args["stolen"] = true
			out = append(out, obs.TraceEvent{
				Name: "steal", Ph: "i", Ts: uint64(e.Start) / 1000, Pid: 0, Tid: e.Worker,
				Scope: "t", Args: map[string]any{"shard": e.Shard, "job": e.Job},
			})
		}
		out = append(out, obs.TraceEvent{
			Name: "job " + strconv.Itoa(e.Job), Ph: "B", Ts: uint64(e.Start) / 1000,
			Pid: 0, Tid: e.Worker, Args: args,
		})
		out = append(out, obs.TraceEvent{
			Name: "job " + strconv.Itoa(e.Job), Ph: "E", Ts: uint64(e.End) / 1000,
			Pid: 0, Tid: e.Worker,
		})
	}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, obs.TraceEvent{
			Name: "thread_name", Ph: "M", Ts: 0, Pid: 0, Tid: id,
			Args: map[string]any{"name": "worker " + strconv.Itoa(id)},
		})
	}
	return json.NewEncoder(w).Encode(out)
}

// StatusLine renders the live one-line fleet status TTY progress appends:
// busy workers out of the fleet width plus the steal count. Safe on a nil
// receiver (returns "").
func (p *Profile) StatusLine() string {
	if p == nil {
		return ""
	}
	w := p.Workers()
	if w == 0 {
		return ""
	}
	s := fmt.Sprintf("busy %d/%d", p.BusyWorkers(), w)
	if st := p.Steals(); st > 0 {
		s += fmt.Sprintf(" steals %d", st)
	}
	return s
}
