//go:build go1.23

package sim

import (
	"iter"
	"runtime"
)

// coro is a coroutine built on iter.Pull. The runtime coroutine under one
// iter.Pull always has exactly one goroutine blocked on it, and its next
// and yield both switch on it: the caller blocks on the coroutine and the
// goroutine blocked there runs. The runtime lets any goroutine make that
// switch, not only the one that called iter.Pull or the one running the
// sequence, so swap can hand control between any two goroutines.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// yielding is set when the next swap must call yield: iter.Pull
	// panics unless next and yield alternate.
	yielding bool
}

// start makes f, which never returns, run on the goroutine blocked on c
// from the first swap. When f's goroutine exits by runtime.Goexit, the
// goroutine then blocked on c exits too.
func (c *coro) start(f func()) {
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		f()
	})
}

// swap blocks the caller on c and runs the goroutine blocked on c.
func (c *coro) swap() {
	if !c.yielding {
		c.yielding = true
		c.next()
		return
	}
	c.yielding = false
	if !c.yield(struct{}{}) {
		runtime.Goexit()
	}
}
