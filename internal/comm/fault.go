package comm

import (
	"context"
	"sync"
)

// This file is the failure-aware execution layer of the world: fault
// injection (per-rank fail-at-op and slow links), the abort protocol that
// deterministically unblocks every rank mid-collective, and the
// error-returning Run variants — timeouts, cancellation, typed failures —
// that everything above it (plan executors, sessions, serving) is built and
// tested against, over either transport.
//
// Abort protocol: the first failure (an injected fault, a rank panic, an
// external Abort, a deadline) records its cause on the world and closes the
// abort channel. Every blocking primitive — a transport receive (sends never
// block), and therefore every collective — selects on that channel and
// unwinds with the abortPanic sentinel, which RunErr absorbs on each rank
// goroutine. After all ranks have joined, RunErr drains the transport's
// undelivered payloads back into the buffer pool, re-arms the abort channel,
// and returns the recorded *RankError: an in-process world is immediately
// reusable, which is what makes retry-based recovery possible.
//
// Over TCP an abort can also arrive between launches, raised by a reader
// goroutine: a peer's abort frame, or a lost peer. The next launch then fails
// at once with that cause instead of starting against peers that have moved
// on. A lost peer is sticky — the wire has no rejoin — so the world stays
// aborted and every later launch fails with the same *RankError.

// Fault describes one injected failure or degradation, armed with
// InjectFault. Failure faults are one-shot: they disarm when they fire.
type Fault struct {
	// Rank is the world rank to inject at; -1 matches any rank (whichever
	// reaches AfterOps first fires the fault).
	Rank int
	// AfterOps fires the fault when the rank's communication-operation
	// counter reaches this value within a Run (1 = the rank's first op).
	// Counters reset at the start of every Run, so a fault site names a
	// deterministic point in a rank's instruction stream.
	AfterOps int64
	// Err is the reported cause; nil selects ErrInjectedFault.
	Err error
	// Slow, when > 0, degrades instead of failing: from the trigger point
	// on, modeled communication seconds charged to the rank are multiplied
	// by this factor (a flaky NIC, a congested link). The degradation
	// persists until ClearFaults or a SlowRank(rank, 1) heal.
	Slow float64
}

// InjectFault arms a fault. Safe to call at any time, including between
// runs; failure faults fire at most once.
func (w *World) InjectFault(f Fault) {
	w.faultMu.Lock()
	w.faults = append(w.faults, f)
	w.faultMu.Unlock()
	w.haveFaults.Store(true)
}

// ClearFaults disarms every pending fault and heals all slow links.
func (w *World) ClearFaults() {
	w.faultMu.Lock()
	w.faults = nil
	w.faultMu.Unlock()
	w.haveFaults.Store(false)
	w.degrade.Reset()
}

// SlowRank degrades (factor > 1) or heals (factor == 1) a rank's links
// immediately: modeled communication seconds charged to the rank are
// multiplied by factor. Volume accounting is never affected.
func (w *World) SlowRank(rank int, factor float64) {
	w.degrade.SetFactor(rank, factor)
}

// takeFault returns the armed fault matching (rank, op) and, for failure
// faults, disarms it.
func (w *World) takeFault(rank int, op int64) (Fault, bool) {
	w.faultMu.Lock()
	defer w.faultMu.Unlock()
	for i, f := range w.faults {
		if f.Rank != -1 && f.Rank != rank {
			continue
		}
		if op < f.AfterOps {
			continue
		}
		w.faults = append(w.faults[:i], w.faults[i+1:]...)
		if len(w.faults) == 0 {
			w.haveFaults.Store(false)
		}
		return f, true
	}
	return Fault{}, false
}

// opPoint is the fault/abort gate every communication primitive passes
// through on entry: it advances the rank's op counter, fires any armed
// fault, and unwinds immediately when the world is already aborting (so a
// compute-bound rank notices an abort at its next op rather than blocking
// into a dead collective). Both unwinds are abortPanic panics that Run
// recovers into a typed *RankError. It never allocates.
func (r *Rank) opPoint() {
	w := r.w
	n := w.ops[r.ID].Add(1)
	if w.haveFaults.Load() {
		if f, ok := w.takeFault(r.ID, n); ok {
			if f.Slow > 0 {
				w.degrade.SetFactor(r.ID, f.Slow)
			} else {
				err := f.Err
				if err == nil {
					err = ErrInjectedFault
				}
				w.Abort(&RankError{Rank: r.ID, Op: n, Err: err})
				panic(abortPanic{})
			}
		}
	}
	select {
	case <-w.abortCh.Load().ch:
		panic(abortPanic{})
	default:
	}
}

// abortState pairs the channel blocking primitives select on with whether it
// has been closed; the pointer swaps atomically so the hot path never takes
// a lock.
type abortState struct {
	ch     chan struct{}
	closed bool
}

// Abort aborts the current Run: the first call records err as the cause
// (non-*RankError causes are wrapped with Rank == -1) and unblocks every
// rank — pending sends and receives — which unwind and make
// RunErr return the cause. Later calls are no-ops. Safe to call from any
// goroutine, including a rank's own.
func (w *World) Abort(err error) { w.abort(err, true) }

// abort is the shared abort body; broadcast selects whether a TCP world
// announces the abort to its peers (true for locally raised failures, false
// for aborts that arrived from a peer or a detected disconnect — every
// survivor observes those directly, and re-broadcasting would echo forever).
func (w *World) abort(err error, broadcast bool) {
	w.abortMu.Lock()
	if w.abortErr != nil {
		w.abortMu.Unlock()
		return
	}
	if _, ok := err.(*RankError); !ok {
		err = &RankError{Rank: -1, Err: err}
	}
	w.abortErr = err
	st := w.abortCh.Load()
	w.abortCh.Store(&abortState{ch: st.ch, closed: true})
	close(st.ch)
	w.abortMu.Unlock()
	if broadcast && w.net != nil {
		w.net.broadcastAbort(err)
	}
}

// losePeer records a TCP peer's loss and aborts the world with it. reset
// never clears it: every later launch fails with err.
func (w *World) losePeer(err *RankError) {
	w.abortMu.Lock()
	if w.lost == nil {
		w.lost = err
	}
	w.abortMu.Unlock()
	w.abort(err, false)
}

// abortCause returns the recorded abort cause, nil if none.
func (w *World) abortCause() error {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// reset restores an aborted world to a clean, reusable state: the abort
// channel is re-armed and undelivered payloads are drained back into the
// buffer pool — unless a peer is lost, in which case the world stays aborted
// with the loss as its cause. Callers must ensure no rank goroutine is still
// inside the world (RunErr guarantees it: all ranks have joined).
func (w *World) reset() {
	w.abortMu.Lock()
	w.abortErr = w.lost
	if w.lost == nil && w.abortCh.Load().closed {
		w.abortCh.Store(&abortState{ch: make(chan struct{})})
	}
	w.abortMu.Unlock()
	w.tr.drain()
}

// RunErr executes fn once per hosted rank (every rank of an in-process
// world, exactly one over TCP), each in its own goroutine, and blocks
// until all return. Any failure — an injected fault, a rank panic, an error
// returned by fn, an external Abort — aborts the whole collective: every
// blocked rank unwinds deterministically, the world is reset to a reusable
// state, and the first failure's *RankError is returned. A nil return means
// every rank completed. An abort pending at launch — raised between launches
// by the wire — fails the launch at once with its cause.
func (w *World) RunErr(fn func(r *Rank) error) error {
	if cause := w.abortCause(); cause != nil {
		w.reset()
		return cause
	}
	for i := range w.ops {
		w.ops[i].Store(0)
	}
	var wg sync.WaitGroup
	for _, id := range w.hosted {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				e := recover()
				if e == nil || isAbortPanic(e) {
					return // abort cause already recorded by the aborter
				}
				w.Abort(&RankError{Rank: id, Op: w.ops[id].Load(), Err: toError(e)})
			}()
			if err := fn(&Rank{w: w, ID: id}); err != nil {
				w.Abort(&RankError{Rank: id, Op: w.ops[id].Load(), Err: err})
			}
		}(id)
	}
	wg.Wait()
	if cause := w.abortCause(); cause != nil {
		w.reset()
		return cause
	}
	return nil
}

// RunCtx is RunErr with cancellation: when ctx is cancelled or times out
// mid-run, the world aborts (unblocking every rank mid-collective) and
// RunCtx returns a *RankError wrapping ctx.Err(). A context that can never
// be cancelled adds no overhead.
func (w *World) RunCtx(ctx context.Context, fn func(r *Rank) error) error {
	if ctx.Done() == nil {
		return w.RunErr(fn)
	}
	if err := ctx.Err(); err != nil {
		return &RankError{Rank: -1, Err: err}
	}
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	var fired *RankError // the watcher's abort; read after watcherDone
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			fired = &RankError{Rank: -1, Err: ctx.Err()}
			w.Abort(fired)
		case <-stop:
		}
	}()
	err := w.RunErr(fn)
	close(stop)
	<-watcherDone
	if err == nil && fired != nil && w.abortCause() == fired {
		// The watcher fired between the last rank finishing and RunErr's
		// accounting: the work completed, so its own abort is stale. Any
		// other pending cause came from the wire and fails the next launch.
		w.reset()
	}
	return err
}

// Ops returns the number of communication operations rank has entered in
// the current (or last) Run — the coordinate fault sites are named in.
func (w *World) Ops(rank int) int64 { return w.ops[rank].Load() }
