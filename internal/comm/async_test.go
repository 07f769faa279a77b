package comm

import (
	"runtime"
	"testing"
	"time"

	"sagnn/internal/machine"
)

// TestAsyncCloseReleasesWorker pins the lifecycle contract: Close (also the
// finalizer) ends the parked worker goroutine, Await on an idle Async is a
// no-op, and reuse after Close panics.
func TestAsyncCloseReleasesWorker(t *testing.T) {
	w := NewWorld(1, machine.Perlmutter())
	g := w.WorldGroup()
	before := runtime.NumGoroutine()
	w.Run(func(r *Rank) {
		a := NewAsync()
		a.Await() // idle: no-op
		dst := make([]float64, 1)
		a.StartBcastFloatsInto(g, r, 0, []float64{5}, dst, "")
		a.Await()
		if dst[0] != 5 {
			t.Errorf("bcast landed %v", dst)
		}
		a.Close()
		a.Close() // idempotent
		defer func() {
			if recover() == nil {
				t.Error("Start after Close should panic")
			}
		}()
		a.StartRecvInto(r, 0, 0, dst)
	})
	// The worker parks and exits asynchronously after Close; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before", n, before)
	}
}
