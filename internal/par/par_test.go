package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at GOMAXPROCS procs and restores the old setting.
func withProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs, func() {
			for _, n := range []int{0, 1, 2, 3, 7, 64} {
				hits := make([]atomic.Int32, n)
				For(n, func(i int) { hits[i].Add(1) })
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Errorf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, got)
					}
				}
			}
		})
	}
}

func TestForOneWorkerAllocatesNothing(t *testing.T) {
	withProcs(t, 1, func() {
		sum := 0
		fn := func(i int) { sum += i }
		if allocs := testing.AllocsPerRun(100, func() { For(64, fn) }); allocs != 0 {
			t.Fatalf("one-worker For allocates %v times, want 0", allocs)
		}
		if sum == 0 {
			t.Fatal("fn never ran")
		}
	})
}

// TestForRaisesWorkerPanicOnCaller panics in the last index while index 0,
// on another worker, is still running: the caller must see the original
// value, and only once index 0 has returned and every worker has exited.
func TestForRaisesWorkerPanicOnCaller(t *testing.T) {
	withProcs(t, 4, func() {
		base := runtime.NumGoroutine()
		type boom struct{ at int }
		const n = 4
		var active atomic.Int32
		started := make(chan struct{})
		var got any
		var activeAtRecover int32
		func() {
			defer func() {
				got = recover()
				activeAtRecover = active.Load()
			}()
			For(n, func(i int) {
				active.Add(1)
				defer active.Add(-1)
				switch i {
				case 0:
					<-started
					time.Sleep(20 * time.Millisecond)
				case n - 1:
					close(started)
					panic(boom{at: i})
				}
			})
		}()
		if b, ok := got.(boom); !ok || b.at != n-1 {
			t.Fatalf("caller recovered %#v, want boom{at: %d}", got, n-1)
		}
		if activeAtRecover != 0 {
			t.Fatalf("panic raised with %d calls of fn still running", activeAtRecover)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines %d after the panic, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
