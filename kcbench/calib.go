package main

import (
	"runtime"
	"sync"
	"time"
)

// calibration records how much parallelism the box really gives: a box
// may report nproc = 2 while two spinning goroutines take twice as long as
// one (a shared or throttled host). Every run prints it next to nproc and
// GOMAXPROCS, so no figure implies cores it did not have.
type calibration struct {
	nproc, gomaxprocs int
	one, two          time.Duration // wall time of one spinner; of two at once
}

// effectiveCores is 2·one/two: 1.0 when two spinners serialize, 2.0 when
// they run fully in parallel.
func (c calibration) effectiveCores() float64 {
	return 2 * c.one.Seconds() / c.two.Seconds()
}

// spinSink keeps the spin loop's result live.
var spinSink uint64

func spin(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// calibrate times one spinner, then two concurrent ones, each doing the
// same fixed work. Tries alternate between the two so a drifting clock
// speed or a neighbour's burst hits both alike; each keeps its fastest of
// five.
func calibrate() calibration {
	const work = 20_000_000
	c := calibration{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0)}
	timed := func(workers int) time.Duration {
		var wg sync.WaitGroup
		var mu sync.Mutex
		start := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := spin(work)
				mu.Lock()
				spinSink += x
				mu.Unlock()
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	timed(2) // warm up
	for try := 0; try < 5; try++ {
		if d := timed(1); c.one == 0 || d < c.one {
			c.one = d
		}
		if d := timed(2); c.two == 0 || d < c.two {
			c.two = d
		}
	}
	return c
}
