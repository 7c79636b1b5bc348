//go:build !go1.23

package sim

import "runtime"

// coro is a coroutine built on a goroutine and two unbuffered channels:
// resume and suspend hand control across them, so one side always waits
// while the other runs.
type coro struct {
	resumed, suspended chan struct{}
	// exited is set when f has ended, which only runtime.Goexit does.
	exited bool
}

// start makes f, which never returns, run from the first resume. A
// runtime.Goexit in f ends the goroutine that resumed it.
func (c *coro) start(f func()) {
	c.resumed = make(chan struct{})
	c.suspended = make(chan struct{})
	go func() {
		defer func() {
			c.exited = true
			c.suspended <- struct{}{}
		}()
		<-c.resumed
		f()
	}()
}

// resume runs the coroutine until it suspends.
func (c *coro) resume() {
	c.resumed <- struct{}{}
	<-c.suspended
	if c.exited {
		runtime.Goexit()
	}
}

// suspend returns control to the caller of resume.
func (c *coro) suspend() {
	c.suspended <- struct{}{}
	<-c.resumed
}
