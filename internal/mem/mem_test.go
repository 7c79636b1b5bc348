package mem

import (
	"sort"
	"testing"
	"testing/quick"

	"elision/internal/sim"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	s := NewStore(1024)
	a := s.Alloc(4)
	s.StoreWord(a, 42)
	s.StoreWord(a+1, -7)
	if got := s.Load(a); got != 42 {
		t.Fatalf("Load(a) = %d, want 42", got)
	}
	if got := s.Load(a + 1); got != -7 {
		t.Fatalf("Load(a+1) = %d, want -7", got)
	}
}

func TestAllocNeverReturnsNil(t *testing.T) {
	s := NewStore(4096)
	for i := 0; i < 100; i++ {
		if a := s.Alloc(3); a == Nil {
			t.Fatal("Alloc returned the nil address")
		}
	}
}

func TestAllocLinesAligned(t *testing.T) {
	s := NewStore(4096)
	s.Alloc(3) // misalign the frontier
	for i := 0; i < 20; i++ {
		a := s.AllocLines(1)
		if int(a)%LineWords != 0 {
			t.Fatalf("AllocLines returned unaligned address %d", a)
		}
	}
}

func TestDistinctAllocationsDoNotOverlap(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := NewStore(1 << 16)
		type region struct{ a, n Addr }
		var regions []region
		for _, sz := range sizes {
			n := Addr(sz%16 + 1)
			a := s.Alloc(int(n))
			for _, r := range regions {
				if a < r.a+r.n && r.a < a+n {
					return false
				}
			}
			regions = append(regions, region{a, n})
			if len(regions) > 200 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(7) != 0 {
		t.Fatal("words 0..7 must share line 0")
	}
	if LineOf(8) != 1 {
		t.Fatal("word 8 must start line 1")
	}
	a := Addr(12345)
	if LineOf(a) != int(a)/LineWords {
		t.Fatal("LineOf disagrees with integer division")
	}
}

func TestWildAddressPanics(t *testing.T) {
	s := NewStore(64)
	for _, a := range []Addr{0, -1, 1 << 30} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Load(%d) did not panic", a)
				}
			}()
			s.Load(a)
		}()
	}
}

func TestWaitersWokenByStore(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 1})
	s := NewStore(1024)
	a := s.Alloc(1)
	var woke sim.WakeCause
	waiter := m.Go(func(p *sim.Proc) {
		s.AddWaiter(a, p)
		woke = p.Block(sim.NoDeadline)
	})
	_ = waiter
	m.Go(func(p *sim.Proc) {
		p.Advance(100)
		s.StoreWord(a, 1)
		s.WakeWaiters(a, p, sim.WakeStore, 10)
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != sim.WakeStore {
		t.Fatalf("woke = %v, want WakeStore", woke)
	}
}

func TestRemoveWaiter(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 2, Seed: 1})
	s := NewStore(1024)
	a := s.Alloc(1)
	var causes []sim.WakeCause
	m.Go(func(p *sim.Proc) {
		s.AddWaiter(a, p)
		causes = append(causes, p.Block(50)) // times out
		s.RemoveWaiter(a, p)
		causes = append(causes, p.Block(200)) // must NOT be woken by the store
	})
	m.Go(func(p *sim.Proc) {
		p.Advance(100)
		s.WakeWaiters(a, p, sim.WakeStore, 0)
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []sim.WakeCause{sim.WakeTimeout, sim.WakeTimeout}
	for i := range want {
		if causes[i] != want[i] {
			t.Fatalf("causes = %v, want %v", causes, want)
		}
	}
}

func TestWakeWaitersClearsList(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 3, Seed: 1})
	s := NewStore(1024)
	a := s.Alloc(1)
	wokenCount := 0
	for i := 0; i < 2; i++ {
		m.Go(func(p *sim.Proc) {
			s.AddWaiter(a, p)
			if p.Block(sim.NoDeadline) == sim.WakeStore {
				wokenCount++
			}
		})
	}
	m.Go(func(p *sim.Proc) {
		p.Advance(10)
		s.WakeWaiters(a, p, sim.WakeStore, 5)
		s.WakeWaiters(a, p, sim.WakeStore, 5) // second call: list empty, no-op
	})
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokenCount != 2 {
		t.Fatalf("woke %d waiters, want 2", wokenCount)
	}
}

// TestWaiterCountTracksRegistrations exercises the registry size behind
// WakeWaiters' zero-test fast path: adds, removals (including of absent
// procs) and wakes must keep it consistent, or stores would silently stop
// waking parked procs.
func TestWaiterCountTracksRegistrations(t *testing.T) {
	m := sim.MustNew(sim.Config{Procs: 3, Seed: 1})
	s := NewStore(1024)
	a := s.AllocLines(1)
	b := s.AllocLines(1)

	woken := 0
	m.Go(func(p *sim.Proc) { // waiter on a
		s.AddWaiter(a, p)
		p.Block(sim.NoDeadline)
		woken++
	})
	m.Go(func(p *sim.Proc) { // waiter on b, deregisters itself after timeout
		s.AddWaiter(b, p)
		p.Block(p.Clock() + 50)
		s.RemoveWaiter(b, p)
		s.RemoveWaiter(b, p) // absent removal must not corrupt the count
		if len(s.waiters) != 1 {
			t.Errorf("after timeout removal: registry size = %d, want 1", len(s.waiters))
		}
	})
	m.Go(func(p *sim.Proc) { // the waker
		p.Advance(200)
		if len(s.waiters) != 1 {
			t.Errorf("before wake: registry size = %d, want 1", len(s.waiters))
		}
		s.StoreWord(a, 7)
		s.WakeWaiters(a, p, sim.WakeStore, 1)
		if len(s.waiters) != 0 {
			t.Errorf("after wake: registry size = %d, want 0", len(s.waiters))
		}
		// Fast path: no waiters anywhere, wake must be a no-op.
		s.WakeWaiters(b, p, sim.WakeStore, 1)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
}

// TestWaiterRegistry pins the registry's bookkeeping: registrations are
// counted per (line, proc) pair, RemoveWaiter drops exactly one, and Reset
// drops all of them.
func TestWaiterRegistry(t *testing.T) {
	type reg struct{ line, proc int }
	type op struct {
		remove bool // RemoveWaiter instead of AddWaiter
		reg
	}
	add := func(line, proc int) op { return op{reg: reg{line, proc}} }
	remove := func(line, proc int) op { return op{remove: true, reg: reg{line, proc}} }
	cases := []struct {
		name  string
		ops   []op
		reset bool
		want  []reg
	}{
		{"one proc twice on a line", []op{add(0, 0), add(0, 0)}, false, []reg{{0, 0}, {0, 0}}},
		{"remove drops exactly one", []op{add(0, 0), add(1, 1), add(0, 0), remove(0, 0)}, false, []reg{{0, 0}, {1, 1}}},
		{"remove matches line and proc", []op{add(0, 0), add(1, 1), remove(1, 0), remove(0, 1)}, false, []reg{{0, 0}, {1, 1}}},
		{"remove of an absent proc", []op{remove(0, 0)}, false, nil},
		{"reset drops every registration", []op{add(0, 0), add(1, 1), add(2, 2), add(2, 0)}, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := sim.MustNew(sim.Config{Procs: 3, Seed: 1})
			s := NewStore(1024)
			lines := []Addr{s.AllocLines(1), s.AllocLines(1), s.AllocLines(1)}
			for _, o := range tc.ops {
				a := lines[o.line] + Addr(o.proc) // any word of the line
				if o.remove {
					s.RemoveWaiter(a, m.Proc(o.proc))
				} else {
					s.AddWaiter(a, m.Proc(o.proc))
				}
			}
			if tc.reset {
				s.Reset(1024)
			}
			var got []reg
			for _, w := range s.waiters {
				got = append(got, reg{w.line - LineOf(lines[0]), w.p.ID()})
			}
			sort.Slice(got, func(i, j int) bool {
				if got[i].line != got[j].line {
					return got[i].line < got[j].line
				}
				return got[i].proc < got[j].proc
			})
			if len(got) != len(tc.want) {
				t.Fatalf("registry = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("registry = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestWakeWaitersWakesOnlyThatLine: a store to one line wakes exactly the
// procs registered on it — including a proc registered on it twice and a
// proc also watching another line — drops their registrations on that line
// only, and leaves procs parked on other lines asleep.
func TestWakeWaitersWakesOnlyThatLine(t *testing.T) {
	const procs = 4
	m := sim.MustNew(sim.Config{Procs: procs + 1, Seed: 1})
	s := NewStore(1024)
	a, b := s.AllocLines(1), s.AllocLines(1)
	watch := [procs][]Addr{{a}, {b}, {a, a + 1}, {b, a + 2}}
	causes := make([]sim.WakeCause, procs)
	for i := 0; i < procs; i++ {
		m.Go(func(p *sim.Proc) {
			for _, w := range watch[i] {
				s.AddWaiter(w, p)
			}
			causes[i] = p.Block(1000)
		})
	}
	m.Go(func(p *sim.Proc) {
		p.Advance(100)
		s.WakeWaiters(a+3, p, sim.WakeStore, 1)
		if len(s.waiters) != 2 {
			t.Errorf("after waking line a: %d registrations, want 2 (procs 1 and 3 on b)", len(s.waiters))
		}
		for _, w := range s.waiters {
			if w.line != LineOf(b) {
				t.Errorf("registration on line %d survived, want only line %d", w.line, LineOf(b))
			}
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.WakeCause{sim.WakeStore, sim.WakeTimeout, sim.WakeStore, sim.WakeStore}
	for i := range want {
		if causes[i] != want[i] {
			t.Fatalf("wake causes = %v, want %v", causes, want)
		}
	}
}
