//go:build !go1.23

package sim

import "runtime"

// coro is a coroutine built on a goroutine and one unbuffered channel,
// with the semantics of coro.go's: one goroutine is always blocked
// receiving on ch, and swap's send wakes it before the caller blocks there
// in its place.
type coro struct {
	ch chan struct{}
	// exited is set when f's goroutine has ended, which only
	// runtime.Goexit does.
	exited bool
}

// start makes f, which never returns, run on the goroutine blocked on c
// from the first swap. When f's goroutine exits by runtime.Goexit, the
// goroutine then blocked on c exits too.
func (c *coro) start(f func()) {
	c.ch = make(chan struct{})
	go func() {
		defer func() {
			c.exited = true
			c.ch <- struct{}{}
		}()
		<-c.ch
		f()
	}()
}

// swap blocks the caller on c and runs the goroutine blocked on c.
func (c *coro) swap() {
	c.ch <- struct{}{}
	<-c.ch
	if c.exited {
		runtime.Goexit()
	}
}
