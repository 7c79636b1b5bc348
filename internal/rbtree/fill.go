package rbtree

import (
	"fmt"
	"math/bits"

	"elision/internal/htm"
	"elision/internal/mem"
)

// Fill inserts keys from a bounded domain into a tree that started empty,
// leaving simulated memory exactly as the same sequence of Insert calls
// would, without Insert's descent.
//
// A BST insert always attaches the new key under its in-order predecessor
// when that node has no right child, and otherwise under its successor,
// which then has no left child. Fill keeps the keys present as an in-Go
// bitset over [0, domain) and the node holding each key in a table, so the
// parent costs one simulated read, right(predecessor), instead of a
// root-to-leaf walk of a tree whose nodes sit in insertion order. From there
// it runs Insert's own tail (attach). Rotations relink nodes but never move
// a key to another node, so the table stays valid.
//
// Only set-up may use it: a descent through an htm.Raw accessor is free in
// simulated time, so skipping it changes nothing the simulation sees, while
// an Insert inside a critical section is the simulated workload itself.
// A Fill is valid only while every insert into its tree goes through it.
type Fill struct {
	t       *Tree
	present []uint64   // bit k set: key k is in the tree
	node    []mem.Addr // node[k]: the node holding key k, when present
}

// NewFill returns a fill of t over keys [0, domain). It panics unless t is
// empty.
func NewFill(t *Tree, ac htm.Accessor, domain int) *Fill {
	if t.root(ac) != mem.Nil {
		panic("rbtree: Fill of a non-empty tree")
	}
	return &Fill{
		t:       t,
		present: make([]uint64, (domain+63)/64),
		node:    make([]mem.Addr, domain),
	}
}

// Insert adds key/val as Tree.Insert does, with the same result and the
// same simulated memory afterwards. It panics on a key outside the domain.
func (f *Fill) Insert(ac htm.Accessor, key, val int64) bool {
	if key < 0 || key >= int64(len(f.node)) {
		panic(fmt.Sprintf("rbtree: Fill key %d outside [0, %d)", key, len(f.node)))
	}
	if f.present[key>>6]&(1<<(key&63)) != 0 {
		set(ac, f.node[key], fVal, val)
		return false
	}
	var p mem.Addr
	if pk := f.prev(key); pk >= 0 && right(ac, f.node[pk]) == mem.Nil {
		p = f.node[pk]
	} else if sk := f.next(key); sk >= 0 {
		p = f.node[sk]
	}
	f.node[key] = f.t.attach(ac, p, key, val)
	f.present[key>>6] |= 1 << (key & 63)
	return true
}

// prev returns the largest present key below key, or -1.
func (f *Fill) prev(key int64) int64 {
	i := key >> 6
	w := f.present[i] & (1<<(key&63) - 1)
	for w == 0 {
		if i == 0 {
			return -1
		}
		i--
		w = f.present[i]
	}
	return i<<6 + 63 - int64(bits.LeadingZeros64(w))
}

// next returns the smallest present key above key, or -1.
func (f *Fill) next(key int64) int64 {
	i := key >> 6
	w := f.present[i] &^ (2<<(key&63) - 1)
	for w == 0 {
		i++
		if i == int64(len(f.present)) {
			return -1
		}
		w = f.present[i]
	}
	return i<<6 + int64(bits.TrailingZeros64(w))
}
