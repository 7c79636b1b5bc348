package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// The shared build host's speed drifts: over fifteen minutes the same
// binary ran contend-write (at a shorter job budget than today's) at
// 275-350 and then at 500-570 simulations per second, with no CPU steal
// reported. Raw wall-clock rates from two sets of
// runs therefore disagree by more than any useful bound. The timing
// metrics are instead normalized to a nominal host: before the first timed
// segment and after every one, the run measures a fixed reference workload,
// independent of the program, shaped like the simulator's host work
// (goroutine handoffs over unbuffered channels and random access over a
// 16 MiB array), and scales each segment's rate by refNominal over the mean
// of the two reference rates around it. A change to the program moves the
// normalized metrics; a change in host speed moves both the segment and the
// reference and cancels.

// refNominal is the nominal host's reference rate (reference rounds per
// second on two goroutines), about what the build host measures when quiet.
const refNominal = 1000.0

// refWindow is how long each reference sample runs.
const refWindow = 100 * time.Millisecond

// hostRef is the reference workload. Its array lives outside the Go heap,
// so it neither counts in live_heap_mb nor adds to the collector's work.
type hostRef struct {
	arr []byte
}

func newHostRef() (*hostRef, error) {
	arr, err := syscall.Mmap(-1, 0, 16<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference workload: %v", err)
	}
	return &hostRef{arr: arr}, nil
}

func (h *hostRef) close() {
	// The mapping is only read and written by this process; failing to
	// unmap it at exit loses nothing.
	_ = syscall.Munmap(h.arr)
}

// round is one unit of reference work on one half of the array: 2000
// handoffs to a partner goroutine, with 40 random read-modify-writes
// between handoffs.
func (h *hostRef) round(half int, seed uint64) {
	arr := h.arr[half*len(h.arr)/2 : (half+1)*len(h.arr)/2]
	a, b := make(chan uint64), make(chan uint64)
	done := make(chan struct{})
	go func() {
		for v := range a {
			b <- v + 1
		}
		close(done)
	}()
	x := seed
	for i := 0; i < 2000; i++ {
		for k := 0; k < 40; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			arr[x>>41%uint64(len(arr))] += byte(x)
		}
		a <- x
		x += <-b
	}
	close(a)
	<-done
}

// rate runs reference rounds on two goroutines, one per CPU the campaign
// uses, for about refWindow and returns rounds per second.
func (h *hostRef) rate() float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < refWindow {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h.round(w, uint64(n+w))
			}(w)
		}
		wg.Wait()
		n += workers
	}
	return float64(n) / time.Since(t0).Seconds()
}
