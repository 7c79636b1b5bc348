// Package rbtree implements a red-black tree that lives entirely in
// simulated memory: every node is one cache line, every field access goes
// through an htm.Accessor, so the same code runs transactionally inside a
// speculative critical section and non-transactionally under a held lock.
//
// It is the data structure of the paper's §4 and §7.1 benchmarks: a sorted
// map protected by a single global lock, whose operation footprint (and
// hence conflict probability and critical-section length) scales with the
// tree size.
//
// The implementation is the classic parent-pointer red-black tree, but with
// real nil pointers instead of a shared sentinel node: a sentinel's parent
// field would be written by every structural delete, manufacturing false
// conflicts between speculative operations in disjoint subtrees.
//
// Invariants: tree operations must run on the currently executing sim.Proc
// (the single-runner invariant) and touch shared state only through the
// provided Accessor, so the same call is transactional or plain depending
// on the caller's context and every run is deterministic from the machine
// seed. Aborted transactions re-run operations, so they are written to be
// overwrite-idempotent on the Go side.
package rbtree

import (
	"fmt"

	"elision/internal/htm"
	"elision/internal/mem"
)

// Node field offsets (nodes are one line, 8 words).
const (
	fKey    = 0
	fVal    = 1
	fLeft   = 2
	fRight  = 3
	fParent = 4
	fColor  = 5
)

// Colors.
const (
	black int64 = 0
	red   int64 = 1
)

// Tree is a red-black tree in simulated memory.
type Tree struct {
	m    *htm.Memory
	heap *htm.Heap
	// rootPtr is the word holding the root pointer, on its own line.
	rootPtr mem.Addr
}

// New creates an empty tree with a per-proc node heap.
func New(m *htm.Memory, procs int) *Tree {
	return &Tree{
		m:       m,
		heap:    htm.NewHeap(m, procs, 1, 64),
		rootPtr: m.Store().AllocLines(1),
	}
}

// --- field access helpers ----------------------------------------------------

func get(ac htm.Accessor, n mem.Addr, f mem.Addr) int64 { return ac.Load(n + f) }
func set(ac htm.Accessor, n mem.Addr, f mem.Addr, v int64) {
	ac.Store(n+f, v)
}

func left(ac htm.Accessor, n mem.Addr) mem.Addr   { return mem.Addr(get(ac, n, fLeft)) }
func right(ac htm.Accessor, n mem.Addr) mem.Addr  { return mem.Addr(get(ac, n, fRight)) }
func parent(ac htm.Accessor, n mem.Addr) mem.Addr { return mem.Addr(get(ac, n, fParent)) }

// color reads a node's color; nil nodes are black.
func color(ac htm.Accessor, n mem.Addr) int64 {
	if n == mem.Nil {
		return black
	}
	return get(ac, n, fColor)
}

func (t *Tree) root(ac htm.Accessor) mem.Addr { return mem.Addr(ac.Load(t.rootPtr)) }
func (t *Tree) setRoot(ac htm.Accessor, n mem.Addr) {
	ac.Store(t.rootPtr, int64(n))
}

// --- queries ------------------------------------------------------------------

// Lookup returns the value stored under key.
func (t *Tree) Lookup(ac htm.Accessor, key int64) (int64, bool) {
	n := t.root(ac)
	for n != mem.Nil {
		k := get(ac, n, fKey)
		switch {
		case key < k:
			n = left(ac, n)
		case key > k:
			n = right(ac, n)
		default:
			return get(ac, n, fVal), true
		}
	}
	return 0, false
}

// Min returns the smallest key, if any.
func (t *Tree) Min(ac htm.Accessor) (int64, bool) {
	n := t.root(ac)
	if n == mem.Nil {
		return 0, false
	}
	for left(ac, n) != mem.Nil {
		n = left(ac, n)
	}
	return get(ac, n, fKey), true
}

// --- rotations ----------------------------------------------------------------

func (t *Tree) rotateLeft(ac htm.Accessor, x mem.Addr) {
	y := right(ac, x)
	yl := left(ac, y)
	set(ac, x, fRight, int64(yl))
	if yl != mem.Nil {
		set(ac, yl, fParent, int64(x))
	}
	xp := parent(ac, x)
	set(ac, y, fParent, int64(xp))
	if xp == mem.Nil {
		t.setRoot(ac, y)
	} else if left(ac, xp) == x {
		set(ac, xp, fLeft, int64(y))
	} else {
		set(ac, xp, fRight, int64(y))
	}
	set(ac, y, fLeft, int64(x))
	set(ac, x, fParent, int64(y))
}

func (t *Tree) rotateRight(ac htm.Accessor, x mem.Addr) {
	y := left(ac, x)
	yr := right(ac, y)
	set(ac, x, fLeft, int64(yr))
	if yr != mem.Nil {
		set(ac, yr, fParent, int64(x))
	}
	xp := parent(ac, x)
	set(ac, y, fParent, int64(xp))
	if xp == mem.Nil {
		t.setRoot(ac, y)
	} else if right(ac, xp) == x {
		set(ac, xp, fRight, int64(y))
	} else {
		set(ac, xp, fLeft, int64(y))
	}
	set(ac, y, fRight, int64(x))
	set(ac, x, fParent, int64(y))
}

// --- insert -------------------------------------------------------------------

// Insert adds key/val; if key already exists its value is updated and
// Insert reports false.
func (t *Tree) Insert(ac htm.Accessor, key, val int64) bool {
	var p mem.Addr
	n := t.root(ac)
	for n != mem.Nil {
		p = n
		k := get(ac, n, fKey)
		switch {
		case key < k:
			n = left(ac, n)
		case key > k:
			n = right(ac, n)
		default:
			set(ac, n, fVal, val)
			return false
		}
	}
	t.attach(ac, p, key, val)
	return true
}

// attach allocates a red node for a key absent from the tree, links it
// under p (nil for an empty tree) on the side its key orders it, and
// rebalances. It is every insert's tail once the parent is known, whether
// Insert's descent or a Fill's index found it; it returns the new node.
func (t *Tree) attach(ac htm.Accessor, p mem.Addr, key, val int64) mem.Addr {
	z := t.heap.Alloc(ac)
	set(ac, z, fKey, key)
	set(ac, z, fVal, val)
	set(ac, z, fLeft, 0)
	set(ac, z, fRight, 0)
	set(ac, z, fParent, int64(p))
	set(ac, z, fColor, red)
	if p == mem.Nil {
		t.setRoot(ac, z)
	} else if key < get(ac, p, fKey) {
		set(ac, p, fLeft, int64(z))
	} else {
		set(ac, p, fRight, int64(z))
	}
	t.insertFixup(ac, z)
	return z
}

func (t *Tree) insertFixup(ac htm.Accessor, z mem.Addr) {
	for {
		zp := parent(ac, z)
		if zp == mem.Nil || color(ac, zp) == black {
			break
		}
		zpp := parent(ac, zp) // grandparent exists: zp is red, root is black
		if zp == left(ac, zpp) {
			u := right(ac, zpp) // uncle
			if color(ac, u) == red {
				set(ac, zp, fColor, black)
				set(ac, u, fColor, black)
				set(ac, zpp, fColor, red)
				z = zpp
				continue
			}
			if z == right(ac, zp) {
				z = zp
				t.rotateLeft(ac, z)
				zp = parent(ac, z)
				zpp = parent(ac, zp)
			}
			set(ac, zp, fColor, black)
			set(ac, zpp, fColor, red)
			t.rotateRight(ac, zpp)
		} else {
			u := left(ac, zpp)
			if color(ac, u) == red {
				set(ac, zp, fColor, black)
				set(ac, u, fColor, black)
				set(ac, zpp, fColor, red)
				z = zpp
				continue
			}
			if z == left(ac, zp) {
				z = zp
				t.rotateRight(ac, z)
				zp = parent(ac, z)
				zpp = parent(ac, zp)
			}
			set(ac, zp, fColor, black)
			set(ac, zpp, fColor, red)
			t.rotateLeft(ac, zpp)
		}
	}
	r := t.root(ac)
	if color(ac, r) != black {
		set(ac, r, fColor, black)
	}
}

// --- delete -------------------------------------------------------------------

// transplant replaces subtree u with subtree v (v may be nil), given u's
// parent up.
func (t *Tree) transplant(ac htm.Accessor, u, up, v mem.Addr) {
	if up == mem.Nil {
		t.setRoot(ac, v)
	} else if left(ac, up) == u {
		set(ac, up, fLeft, int64(v))
	} else {
		set(ac, up, fRight, int64(v))
	}
	if v != mem.Nil {
		set(ac, v, fParent, int64(up))
	}
}

// Delete removes key, reporting whether it was present. The excised node is
// returned to the accessor thread's free list.
func (t *Tree) Delete(ac htm.Accessor, key int64) bool {
	z := t.root(ac)
	for z != mem.Nil {
		k := get(ac, z, fKey)
		if key < k {
			z = left(ac, z)
		} else if key > k {
			z = right(ac, z)
		} else {
			break
		}
	}
	if z == mem.Nil {
		return false
	}

	var x, xParent mem.Addr
	yColor := color(ac, z)
	switch {
	case left(ac, z) == mem.Nil:
		x = right(ac, z)
		xParent = parent(ac, z)
		t.transplant(ac, z, xParent, x)
	case right(ac, z) == mem.Nil:
		x = left(ac, z)
		xParent = parent(ac, z)
		t.transplant(ac, z, xParent, x)
	default:
		// y = successor(z): minimum of z's right subtree.
		y := right(ac, z)
		for left(ac, y) != mem.Nil {
			y = left(ac, y)
		}
		yColor = color(ac, y)
		x = right(ac, y)
		if parent(ac, y) == z {
			xParent = y
		} else {
			xParent = parent(ac, y)
			t.transplant(ac, y, xParent, x)
			set(ac, y, fRight, get(ac, z, fRight))
			set(ac, right(ac, y), fParent, int64(y))
		}
		t.transplant(ac, z, parent(ac, z), y)
		set(ac, y, fLeft, get(ac, z, fLeft))
		set(ac, left(ac, y), fParent, int64(y))
		set(ac, y, fColor, color(ac, z))
	}
	if yColor == black {
		t.deleteFixup(ac, x, xParent)
	}
	t.heap.Free(ac, z)
	return true
}

// deleteFixup restores red-black properties after removing a black node.
// x may be nil; xParent is its (logical) parent.
func (t *Tree) deleteFixup(ac htm.Accessor, x, xParent mem.Addr) {
	for x != t.root(ac) && color(ac, x) == black {
		if xParent == mem.Nil {
			break
		}
		if x == left(ac, xParent) {
			w := right(ac, xParent)
			if color(ac, w) == red {
				set(ac, w, fColor, black)
				set(ac, xParent, fColor, red)
				t.rotateLeft(ac, xParent)
				w = right(ac, xParent)
			}
			if color(ac, left(ac, w)) == black && color(ac, right(ac, w)) == black {
				set(ac, w, fColor, red)
				x = xParent
				xParent = parent(ac, x)
			} else {
				if color(ac, right(ac, w)) == black {
					wl := left(ac, w)
					if wl != mem.Nil {
						set(ac, wl, fColor, black)
					}
					set(ac, w, fColor, red)
					t.rotateRight(ac, w)
					w = right(ac, xParent)
				}
				set(ac, w, fColor, color(ac, xParent))
				set(ac, xParent, fColor, black)
				wr := right(ac, w)
				if wr != mem.Nil {
					set(ac, wr, fColor, black)
				}
				t.rotateLeft(ac, xParent)
				x = t.root(ac)
				xParent = mem.Nil
			}
		} else {
			w := left(ac, xParent)
			if color(ac, w) == red {
				set(ac, w, fColor, black)
				set(ac, xParent, fColor, red)
				t.rotateRight(ac, xParent)
				w = left(ac, xParent)
			}
			if color(ac, right(ac, w)) == black && color(ac, left(ac, w)) == black {
				set(ac, w, fColor, red)
				x = xParent
				xParent = parent(ac, x)
			} else {
				if color(ac, left(ac, w)) == black {
					wr := right(ac, w)
					if wr != mem.Nil {
						set(ac, wr, fColor, black)
					}
					set(ac, w, fColor, red)
					t.rotateLeft(ac, w)
					w = left(ac, xParent)
				}
				set(ac, w, fColor, color(ac, xParent))
				set(ac, xParent, fColor, black)
				wl := left(ac, w)
				if wl != mem.Nil {
					set(ac, wl, fColor, black)
				}
				t.rotateRight(ac, xParent)
				x = t.root(ac)
				xParent = mem.Nil
			}
		}
	}
	if x != mem.Nil {
		set(ac, x, fColor, black)
	}
}

// --- validation (setup/teardown only) -----------------------------------------

// CheckInvariants walks the whole tree with a Raw accessor and verifies the
// red-black properties: BST ordering, no red-red edges, equal black heights,
// black root, and consistent parent pointers. Intended for tests.
func (t *Tree) CheckInvariants(ac htm.Accessor) error {
	r := t.root(ac)
	if r == mem.Nil {
		return nil
	}
	if color(ac, r) != black {
		return fmt.Errorf("rbtree: root is red")
	}
	if parent(ac, r) != mem.Nil {
		return fmt.Errorf("rbtree: root has a parent")
	}
	_, err := t.check(ac, r)
	return err
}

// check returns the black height of the subtree at n.
func (t *Tree) check(ac htm.Accessor, n mem.Addr) (int, error) {
	if n == mem.Nil {
		return 1, nil
	}
	k := get(ac, n, fKey)
	l, r := left(ac, n), right(ac, n)
	if l != mem.Nil {
		if parent(ac, l) != n {
			return 0, fmt.Errorf("rbtree: node %d: left child's parent pointer wrong", k)
		}
		if get(ac, l, fKey) >= k {
			return 0, fmt.Errorf("rbtree: node %d: BST order violated on the left", k)
		}
	}
	if r != mem.Nil {
		if parent(ac, r) != n {
			return 0, fmt.Errorf("rbtree: node %d: right child's parent pointer wrong", k)
		}
		if get(ac, r, fKey) <= k {
			return 0, fmt.Errorf("rbtree: node %d: BST order violated on the right", k)
		}
	}
	if color(ac, n) == red && (color(ac, l) == red || color(ac, r) == red) {
		return 0, fmt.Errorf("rbtree: node %d: red-red violation", k)
	}
	lh, err := t.check(ac, l)
	if err != nil {
		return 0, err
	}
	rh, err := t.check(ac, r)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("rbtree: node %d: black height mismatch %d vs %d", k, lh, rh)
	}
	if color(ac, n) == black {
		lh++
	}
	return lh, nil
}

// Keys returns all keys in order (test helper; use with a Raw accessor).
func (t *Tree) Keys(ac htm.Accessor) []int64 {
	var out []int64
	var walk func(n mem.Addr)
	walk = func(n mem.Addr) {
		if n == mem.Nil {
			return
		}
		walk(left(ac, n))
		out = append(out, get(ac, n, fKey))
		walk(right(ac, n))
	}
	walk(t.root(ac))
	return out
}

// Size returns the number of keys (test helper).
func (t *Tree) Size(ac htm.Accessor) int {
	return len(t.Keys(ac))
}
