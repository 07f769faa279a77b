package comm

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// chaosTimeout bounds every faulted run: the acceptance criterion is a typed
// error within bounded wall-clock time, never a deadlock.
const chaosTimeout = 10 * time.Second

// collectiveProgram is a representative mixed workload: every rank does a
// broadcast, an all-reduce, an all-to-allv, and neighbor p2p — enough
// distinct blocking points that a fault at any op index strands survivors in
// a different primitive.
func collectiveProgram(rounds int) func(r *Rank) error {
	return func(r *Rank) error {
		g, p := r.World().WorldGroup(), r.P()
		buf, out := make([]float64, 8), make([]float64, 8)
		for i := range buf {
			buf[i] = float64(r.ID)
		}
		send, recv := make([][]float64, p), make([][]float64, p)
		for j := range send {
			send[j], recv[j] = buf[:2], make([]float64, 2)
		}
		for round := 0; round < rounds; round++ {
			g.BcastFloatsInto(r, 0, buf, out, "bcast")
			g.AllReduceSumInto(r, buf, out, "allreduce")
			g.AllToAllvInto(r, send, recv, "alltoall")
			if p > 1 {
				r.Send((r.ID+1)%p, round, buf, "p2p")
				if err := r.TryRecvInto((r.ID+p-1)%p, round, out); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// blockForever parks r in a receive no rank will ever satisfy: only an abort
// releases it.
func blockForever(r *Rank) error {
	return r.TryRecvInto((r.ID+1)%r.P(), 99, nil)
}

func TestInjectFaultReturnsTypedError(t *testing.T) {
	w := testWorld(4)
	w.InjectFault(Fault{Rank: 2, AfterOps: 5})
	err := w.RunTimeout(chaosTimeout, collectiveProgram(20))
	if err == nil {
		t.Fatal("faulted run returned nil")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("want *RankError, got %T: %v", err, err)
	}
	if re.Rank != 2 || re.Op != 5 {
		t.Fatalf("fault attributed to rank %d op %d, want rank 2 op 5", re.Rank, re.Op)
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("cause not ErrInjectedFault: %v", err)
	}
}

func TestFaultAtEveryOpSiteUnblocksWithinDeadline(t *testing.T) {
	// Sweep the fault across every op index of a short program: wherever it
	// lands — bcast, allreduce, alltoallv, send, recv — all ranks must unwind
	// and the run must report the fault.
	clean := testWorld(3)
	if err := clean.RunTimeout(chaosTimeout, collectiveProgram(2)); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	maxOps := clean.Ops(0)
	for site := int64(1); site <= maxOps; site++ {
		for rank := 0; rank < 3; rank++ {
			w := testWorld(3)
			w.InjectFault(Fault{Rank: rank, AfterOps: site})
			err := w.RunTimeout(chaosTimeout, collectiveProgram(2))
			if err == nil {
				t.Fatalf("rank %d op %d: fault did not surface", rank, site)
			}
			if !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("rank %d op %d: unexpected cause %v", rank, site, err)
			}
		}
	}
}

func TestWorldReusableAfterAbort(t *testing.T) {
	w := testWorld(4)
	for attempt := 0; attempt < 3; attempt++ {
		w.InjectFault(Fault{Rank: -1, AfterOps: 3})
		if err := w.RunTimeout(chaosTimeout, collectiveProgram(10)); err == nil {
			t.Fatalf("attempt %d: fault did not surface", attempt)
		}
	}
	// Faults cleared; the same world must now run correctly end to end.
	sums := make([]float64, 4)
	err := w.RunTimeout(chaosTimeout, func(r *Rank) error {
		out := make([]float64, 1)
		r.World().WorldGroup().AllReduceSumInto(r, []float64{float64(r.ID)}, out, "allreduce")
		sums[r.ID] = out[0]
		return nil
	})
	if err != nil {
		t.Fatalf("post-abort run failed: %v", err)
	}
	for rank, s := range sums {
		if s != 6 { // 0+1+2+3
			t.Fatalf("rank %d got %v after world reuse, want 6", rank, s)
		}
	}
}

func TestRunErrPropagatesFnError(t *testing.T) {
	w := testWorld(3)
	boom := errors.New("boom")
	err := w.RunTimeout(chaosTimeout, func(r *Rank) error {
		if r.ID == 1 {
			return boom
		}
		return blockForever(r) // survivors can only be released by abort
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("error not attributed to rank 1: %v", err)
	}
}

func TestRunErrPropagatesRankPanic(t *testing.T) {
	w := testWorld(3)
	err := w.RunTimeout(chaosTimeout, func(r *Rank) error {
		if r.ID == 2 {
			panic("kaboom")
		}
		return blockForever(r)
	})
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Fatalf("panic not attributed to rank 2: %v", err)
	}
}

func TestRunCtxCancelUnblocksMidCollective(t *testing.T) {
	w := testWorld(2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := withDeadlockGuard(t, func() error {
		return w.RunCtx(ctx, blockForever)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > chaosTimeout {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// withDeadlockGuard runs f on a goroutine and fails the test if it has not
// returned within the chaos timeout (instead of wedging the test binary).
func withDeadlockGuard(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(chaosTimeout):
		t.Fatal("run deadlocked past chaos timeout")
		return nil
	}
}

func TestRunTimeoutDeadline(t *testing.T) {
	w := testWorld(2)
	err := w.RunTimeout(50*time.Millisecond, blockForever)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestRunCtxAlreadyCancelled(t *testing.T) {
	w := testWorld(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := w.RunCtx(ctx, func(r *Rank) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran {
		t.Fatal("ranks launched under a dead context")
	}
}

func TestSlowLinkScalesCommTime(t *testing.T) {
	run := func(slow float64) float64 {
		w := testWorld(2)
		if slow > 0 {
			w.SlowRank(0, slow)
		}
		if err := w.RunTimeout(chaosTimeout, func(r *Rank) error {
			if r.ID == 0 {
				r.Send(1, 1, make([]float64, 1024), "p2p")
			} else {
				r.RecvInto(0, 1, make([]float64, 1024))
			}
			return nil
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return w.Ledger.Snapshot().RankTotal(0)
	}
	base := run(0)
	degraded := run(8)
	if base <= 0 {
		t.Fatal("baseline charged no comm time")
	}
	if got := degraded / base; got < 7.9 || got > 8.1 {
		t.Fatalf("slow-link factor 8 priced as ×%.3f", got)
	}
}

func TestSlowFaultDegradesFromTriggerPoint(t *testing.T) {
	w := testWorld(2)
	w.InjectFault(Fault{Rank: 0, AfterOps: 2, Slow: 4})
	if err := w.RunTimeout(chaosTimeout, func(r *Rank) error {
		if r.ID == 0 {
			r.Send(1, 1, make([]float64, 512), "warm")     // clean
			r.Send(1, 2, make([]float64, 512), "degraded") // op 2 arms the slowdown, then charges
		} else {
			r.RecvInto(0, 1, make([]float64, 512))
			r.RecvInto(0, 2, make([]float64, 512))
		}
		return nil
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	ledger := w.Ledger.Snapshot() // only rank 0 charges these phases
	warm, degraded := ledger.PhaseMax("warm"), ledger.PhaseMax("degraded")
	if got := degraded / warm; got < 3.9 || got > 4.1 {
		t.Fatalf("post-trigger ops priced ×%.3f, want ×4", got)
	}
	w.ClearFaults()
	if f := w.CommFactorForTest(0); f != 1 {
		t.Fatalf("ClearFaults left factor %v", f)
	}
}

// CommFactorForTest exposes the degradation factor for assertions.
func (w *World) CommFactorForTest(rank int) float64 {
	var f float64
	w.Run(func(r *Rank) {
		if r.ID == rank {
			f = r.CommFactor()
		}
	})
	return f
}

// TestAsyncMisuseTypedErrors: starting a second operation before Await, or
// any operation after Close, fails the run with the typed cause — and the
// busy check fires before the in-flight operation's slot is touched.
func TestAsyncMisuseTypedErrors(t *testing.T) {
	w := testWorld(2)
	err := w.RunTimeout(chaosTimeout, func(r *Rank) error {
		if r.ID == 1 {
			r.Send(0, 9, []float64{42}, "p2p")
			return nil
		}
		a := NewAsync()
		defer a.Close()
		dst := make([]float64, 1)
		a.StartRecvInto(r, 1, 9, dst) // in flight until Await, landed or not
		a.StartRecvInto(r, 1, 9, dst)
		return nil
	})
	if !errors.Is(err, ErrAsyncBusy) {
		t.Fatalf("double start: want ErrAsyncBusy, got %v", err)
	}
	err = w.RunTimeout(chaosTimeout, func(r *Rank) error {
		a := NewAsync()
		a.Close()
		a.StartRecvInto(r, 1-r.ID, 0, nil)
		return nil
	})
	if !errors.Is(err, ErrAsyncClosed) {
		t.Fatalf("start on closed: want ErrAsyncClosed, got %v", err)
	}
}

func TestOpCountersDeterministic(t *testing.T) {
	counts := func() []int64 {
		w := testWorld(3)
		if err := w.RunTimeout(chaosTimeout, collectiveProgram(4)); err != nil {
			t.Fatalf("run: %v", err)
		}
		out := make([]int64, 3)
		for i := range out {
			out[i] = w.Ops(i)
		}
		return out
	}
	a, b := counts(), counts()
	for i := range a {
		if a[i] != b[i] || a[i] == 0 {
			t.Fatalf("op counters not deterministic: %v vs %v", a, b)
		}
	}
}

func TestNoGoroutineLeakAcrossAbortedRuns(t *testing.T) {
	w := testWorld(4)
	warm := func() {
		w.InjectFault(Fault{Rank: -1, AfterOps: 7})
		_ = w.RunTimeout(chaosTimeout, collectiveProgram(10))
		_ = w.RunTimeout(chaosTimeout, collectiveProgram(2))
	}
	warm() // let any lazily-created goroutines exist before the baseline
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		warm()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d across aborted runs", base, runtime.NumGoroutine())
}
