package rbtree

import (
	"math/rand"
	"testing"

	"elision/internal/htm"
	"elision/internal/sim"
)

// fillSizes are the tree sizes the fill is checked at: the degenerate
// trees, contend-write's 8 and 64 keys, sizes off a power of two, the
// prefill benchmark's 4096 and spec-read's 8192 and 131072.
var fillSizes = []int{1, 2, 3, 8, 64, 100, 512, 4096, 8192, 131072}

// checkFillMatchesInsert builds two size-key trees for a threads-proc
// machine on fresh memories, from the key stream harness's cold fill draws
// (keys from [0, 2·size) until size are present): one through Insert and
// one through a Fill. Then it sends 64 more keys from the stream with value
// val+1 through both, a mix of repeats and new keys. Every call must report
// the same result, and both memories must end byte-identical, frontier
// included.
func checkFillMatchesInsert(t *testing.T, size, threads int, seed, val int64) {
	t.Helper()
	domain := 2 * size
	words := (domain+threads*64*8+4096)*8 + 1<<16 // harness's memoryWords
	build := func() (*htm.Memory, *Tree) {
		hm := htm.NewMemory(sim.MustNew(sim.Config{Procs: threads, Seed: 1}), htm.Config{Words: words})
		return hm, New(hm, threads)
	}
	hmIns, byInsert := build()
	hmFill, byFill := build()
	insRaw, fillRaw := htm.Raw{M: hmIns}, htm.Raw{M: hmFill}
	fill := NewFill(byFill, fillRaw, domain)
	rng := rand.New(rand.NewSource(seed + 1))
	step := func(i int, v int64) bool {
		k := rng.Int63n(int64(domain))
		want := byInsert.Insert(insRaw, k, v)
		if got := fill.Insert(fillRaw, k, v); got != want {
			t.Fatalf("size %d threads %d seed %d: call %d, key %d: Fill.Insert = %v, Insert = %v",
				size, threads, seed, i, k, got, want)
		}
		return want
	}
	i := 0
	for n := 0; n < size; i++ {
		if step(i, val) {
			n++
		}
	}
	for end := i + 64; i < end; i++ {
		step(i, val+1)
	}
	insWords, insBrk := hmIns.Store().Snapshot()
	fillWords, fillBrk := hmFill.Store().Snapshot()
	if insBrk != fillBrk {
		t.Fatalf("size %d threads %d seed %d: frontier %d after Fill, %d after Insert",
			size, threads, seed, fillBrk, insBrk)
	}
	for a := range insWords {
		if fillWords[a] != insWords[a] {
			t.Fatalf("size %d threads %d seed %d: word %d is %d after Fill, %d after Insert",
				size, threads, seed, a, fillWords[a], insWords[a])
		}
	}
	if err := byFill.CheckInvariants(fillRaw); err != nil {
		t.Fatalf("size %d threads %d seed %d: %v", size, threads, seed, err)
	}
}

// TestFillMatchesInsert: a Fill leaves simulated memory exactly as the
// Insert loop does, over every checked size, three machine widths (the heap
// reserves one control line per proc, so the width moves the layout) and
// four seeds, then for a value other than 1.
func TestFillMatchesInsert(t *testing.T) {
	for _, size := range fillSizes {
		for _, threads := range []int{1, 2, 8} {
			for _, seed := range []int64{1, 42, 7920, 99991} {
				checkFillMatchesInsert(t, size, threads, seed, 1)
			}
		}
	}
	for _, size := range fillSizes[:7] {
		checkFillMatchesInsert(t, size, 4, 5, -9)
	}
}

// TestFillRejects: a Fill refuses a tree that is not empty and a key
// outside its domain.
func TestFillRejects(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	_, hm, tr := newTree(1)
	ac := htm.Raw{M: hm}
	fill := NewFill(tr, ac, 16)
	mustPanic("key -1", func() { fill.Insert(ac, -1, 1) })
	mustPanic("key 16 of domain 16", func() { fill.Insert(ac, 16, 1) })
	fill.Insert(ac, 15, 1)
	mustPanic("NewFill of a non-empty tree", func() { NewFill(tr, ac, 16) })
}

// FuzzFillMatchesInsert runs checkFillMatchesInsert over arbitrary sizes
// (up to 131072 keys), machine widths (1–8 procs), seeds and values; the
// checked sizes are the corpus. Run with
// `go test -run '^$' -fuzz FuzzFillMatchesInsert ./internal/rbtree`.
func FuzzFillMatchesInsert(f *testing.F) {
	for i, size := range fillSizes {
		f.Add(size, uint8(i), int64(i*7919), int64(1-i))
	}
	f.Fuzz(func(t *testing.T, size int, threads uint8, seed, val int64) {
		size = 1 + int(uint64(size-1)%(1<<17))
		checkFillMatchesInsert(t, size, 1+int(threads%8), seed, val)
	})
}
