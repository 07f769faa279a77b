// Package par is the one parallel loop of the compute kernels and set-up
// passes: the GEMM and SpMM row stripes, the engines' per-block-row set-up
// and the sampler's rank streams. Its worker count, goroutine start, join and
// panic handling exist here only.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the most goroutines one For runs: GOMAXPROCS. Callers that
// split work into stripes size them by it.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For runs fn(i) for every i in [0, n) on min(n, Workers()) goroutines that
// take indices from one shared counter, and returns once all of them have
// stopped; the caller only waits. Any goroutine may run any index, so fn(i)
// must write only i's own state for the result to be deterministic. With one
// worker For is a plain loop on the caller and allocates nothing.
//
// A panic in fn(i) stops the other workers at their next index and is
// raised again on the caller, with its original value, after every worker
// has returned. So whatever recovers the caller's panics (World.RunErr's
// per-rank shield, the serving batcher's) recovers a worker's too.
func For(n int, fn func(i int)) {
	workers := min(n, Workers())
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	l := &loop{n: int64(n), fn: fn}
	l.wg.Add(workers)
	run := l.run // one method value shared by every go statement
	for w := 0; w < workers; w++ {
		go run()
	}
	l.wg.Wait()
	if l.panicked.Load() {
		panic(l.value)
	}
}

// loop is one For's shared state.
type loop struct {
	next     atomic.Int64
	n        int64
	fn       func(int)
	wg       sync.WaitGroup
	panicked atomic.Bool
	value    any // the first panic's value, written before wg.Done
}

func (l *loop) run() {
	defer l.wg.Done()
	defer func() {
		if e := recover(); e != nil {
			if l.panicked.CompareAndSwap(false, true) {
				l.value = e
			}
			l.next.Store(l.n)
		}
	}()
	for {
		i := l.next.Add(1) - 1
		if i >= l.n {
			return
		}
		l.fn(int(i))
	}
}
