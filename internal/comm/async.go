package comm

import (
	"fmt"
	"runtime"
)

// Async runs communication operations on a dedicated background goroutine so
// a rank can overlap a pending transfer with local compute: a Start* form
// hands the worker one operation and returns immediately; Await blocks until
// that operation has completed (the join point at which the landed data may
// be read). The worker calls the blocking Into forms themselves, so volume
// accounting, the sender-pays convention, and the data moved are all
// identical — only the calling goroutine differs.
//
// At most one operation may be in flight per Async; starting a second
// before Await panics with ErrAsyncBusy. This mirrors the double-buffered
// pipelining the overlapped plan executor performs (lookahead of exactly one
// stage) and, crucially, it keeps each rank's collectives entering their
// groups in program order — two concurrent collective entries from one rank
// would interleave their messages on the pairwise collective-lane streams.
//
// The worker goroutine is spawned lazily on the first Start and then parks
// between operations, so steady-state Start/Await pairs are allocation-free
// (channel operations only). The worker holds references only to the
// request/response channels and the operation slot — never to the Async
// itself — so an Async that becomes unreachable (its engine was dropped) is
// collectable, and a finalizer closes the worker down; long-lived processes
// that build and discard overlap-mode engines do not accumulate parked
// goroutines. Close releases the worker deterministically; a closed Async
// must not be reused (Start* panics with ErrAsyncClosed).
type Async struct {
	req      chan struct{}
	done     chan struct{}
	op       *asyncOp
	inFlight bool
	started  bool
	closed   bool
}

// asyncKind enumerates the operations a worker can run.
type asyncKind uint8

const (
	asyncBcastInto asyncKind = iota
	asyncAllToAllvInto
	asyncRecvInto
)

// asyncOp carries one pending operation's arguments to the worker. Fields
// are written by the starting goroutine before the req send and read by the
// worker after the matching receive, so the channel provides the
// happens-before edge; no other synchronization is needed.
type asyncOp struct {
	kind       asyncKind
	r          *Rank
	g          *Group
	root       int
	data, dst  []float64
	send, recv [][]float64
	src, tag   int
	phase      string
	panicked   any
}

// NewAsync creates an idle asynchronous operation runner. The backing worker
// goroutine starts on the first Start* call and is released by Close — or by
// the runtime, once nothing references the Async anymore.
func NewAsync() *Async {
	a := &Async{req: make(chan struct{}, 1), done: make(chan struct{}, 1), op: &asyncOp{}}
	runtime.SetFinalizer(a, (*Async).Close)
	return a
}

// start hands op to the worker. Misuse panics with the typed cause
// (ErrAsyncClosed, ErrAsyncBusy) before touching the operation slot, and a
// launcher reports it as the run's *RankError.
func (a *Async) start(op asyncOp) {
	if a.closed {
		panic(ErrAsyncClosed)
	}
	if a.inFlight {
		panic(ErrAsyncBusy)
	}
	*a.op = op
	if !a.started {
		a.started = true
		go asyncLoop(a.req, a.done, a.op)
	}
	a.inFlight = true
	a.req <- struct{}{}
}

// asyncLoop is the worker: one operation per request, until the request
// channel closes. A free function over the channels and the operation slot,
// deliberately not a method — a worker referencing its Async would keep it
// reachable forever and defeat the finalizer.
func asyncLoop(req, done chan struct{}, op *asyncOp) {
	for range req {
		op.run()
		done <- struct{}{}
	}
}

// run executes the pending operation, capturing any panic so Await can
// re-raise it on the rank's own goroutine (where World.Run's recovery
// attributes it).
func (op *asyncOp) run() {
	defer func() { op.panicked = recover() }()
	switch op.kind {
	case asyncBcastInto:
		op.g.BcastFloatsInto(op.r, op.root, op.data, op.dst, op.phase)
	case asyncAllToAllvInto:
		op.g.AllToAllvInto(op.r, op.send, op.recv, op.phase)
	case asyncRecvInto:
		op.r.RecvInto(op.src, op.tag, op.dst)
	default:
		panic(fmt.Sprintf("comm: unknown async op %d", op.kind))
	}
}

// Await blocks until the in-flight operation completes. It is a no-op when
// nothing is in flight, so pipelined executors can Await unconditionally.
func (a *Async) Await() {
	if !a.inFlight {
		return
	}
	<-a.done
	a.inFlight = false
	if p := a.op.panicked; p != nil {
		*a.op = asyncOp{}
		panic(p)
	}
	*a.op = asyncOp{}
}

// Drain waits out any in-flight operation and discards its outcome —
// including a captured panic — leaving the Async idle and reusable. It is
// the abort-path counterpart of Await: an executor unwinding from a world
// abort cannot re-raise (it is already panicking) but must not leave a
// completion pending, or the next run's first Await would consume a stale
// one. Safe to call when nothing is in flight. The caller must ensure the
// in-flight operation can finish — on the abort path World.Abort has
// already unblocked it.
func (a *Async) Drain() {
	if !a.inFlight {
		return
	}
	<-a.done
	a.inFlight = false
	*a.op = asyncOp{}
}

// Close waits for any in-flight operation and releases the worker
// goroutine. The Async must not be used afterwards. Also installed as the
// finalizer, so dropping every reference has the same effect eventually.
func (a *Async) Close() {
	if a.closed {
		return
	}
	// Drain, not Await: Close also runs as a finalizer and on abort paths,
	// where re-raising a captured panic would be fatal or double-panic.
	a.Drain()
	a.closed = true
	runtime.SetFinalizer(a, nil)
	if a.started {
		close(a.req)
	}
}

// StartBcastFloatsInto begins BcastFloatsInto on the background worker:
// root's payload lands in dst (whose length must equal the payload length)
// once Await returns. Volume accounting and time charges match the blocking
// form.
func (a *Async) StartBcastFloatsInto(g *Group, r *Rank, root int, data, dst []float64, phase string) {
	a.start(asyncOp{kind: asyncBcastInto, g: g, r: r, root: root, data: data, dst: dst, phase: phase})
}

// StartAllToAllvInto begins AllToAllvInto on the background worker: send[j]
// goes to group member j and member j's contribution lands in recv[j] once
// Await returns. The caller must not touch send or recv until Await.
func (a *Async) StartAllToAllvInto(g *Group, r *Rank, send, recv [][]float64, phase string) {
	a.start(asyncOp{kind: asyncAllToAllvInto, g: g, r: r, send: send, recv: recv, phase: phase})
}

// StartRecvInto begins RecvInto on the background worker: the tagged message
// from src has landed in dst once Await returns. As with the blocking form,
// no time is charged — the sender already paid (see the package comment).
func (a *Async) StartRecvInto(r *Rank, src, tag int, dst []float64) {
	a.start(asyncOp{kind: asyncRecvInto, r: r, src: src, tag: tag, dst: dst})
}
