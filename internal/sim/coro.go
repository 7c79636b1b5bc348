//go:build go1.23

package sim

import "iter"

// coro is a coroutine built on iter.Pull: resume and suspend switch
// directly between two goroutines, bypassing the scheduler's run queues.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// start makes f, which never returns, run from the first resume. A
// runtime.Goexit in f ends the goroutine that resumed it.
func (c *coro) start(f func()) {
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		f()
	})
}

// resume runs the coroutine until it suspends.
func (c *coro) resume() { c.next() }

// suspend returns control to the caller of resume.
func (c *coro) suspend() { c.yield(struct{}{}) }
