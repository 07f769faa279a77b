package comm

import (
	"errors"
	"fmt"
)

// This file is the comm failure model: the typed errors the error-returning
// paths report, and the RankError wrapper World.RunErr attributes failures
// with. Conditions a run can meet — a fault, a lost peer, a poisoned stream —
// are errors (TryRecvInto, the Run* launchers) so failure-aware callers (the
// session recovery loop, the chaos harness) can observe and recover from
// them; caller bugs panic, and on a rank goroutine the launcher turns that
// panic into the run's *RankError as well.

// ErrInjectedFault is the default cause of a fault armed with InjectFault.
var ErrInjectedFault = errors.New("comm: injected fault")

// ErrTagMismatch reports a receive whose head message carried a different
// tag than expected — a protocol bug (or a stream poisoned by a fault).
var ErrTagMismatch = errors.New("comm: receive tag mismatch")

// ErrSizeMismatch reports a payload whose length does not match the
// caller-supplied destination buffer.
var ErrSizeMismatch = errors.New("comm: payload size mismatch")

// ErrPeerDisconnected reports a TCP peer whose connection failed or closed
// before an orderly goodbye — a killed or wedged rank process. Surfaced on
// every survivor as the cause of a *RankError naming the lost rank.
var ErrPeerDisconnected = errors.New("comm: peer disconnected")

// ErrPeerAborted reports that a TCP peer aborted its run and announced the
// failure over the wire; the wrapped text carries the peer's recorded cause.
var ErrPeerAborted = errors.New("comm: peer aborted")

// RankError is the typed failure World.RunErr (and the panicking Run
// wrapper) surfaces: which rank observed the failure, at which of its
// communication operations, and the underlying cause. Aborts raised outside
// any rank (an external World.Abort, a deadline, a cancelled context) carry
// Rank == -1.
type RankError struct {
	// Rank is the world rank that surfaced the failure (-1 when the abort
	// was raised from outside the rank goroutines).
	Rank int
	// Op is the rank's communication-operation sequence number within the
	// failed Run (1-based; 0 when unknown or not applicable).
	Op int64
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *RankError) Error() string {
	switch {
	case e.Rank < 0:
		return fmt.Sprintf("comm: run aborted: %v", e.Err)
	case e.Op > 0:
		return fmt.Sprintf("comm: rank %d failed at op %d: %v", e.Rank, e.Op, e.Err)
	default:
		return fmt.Sprintf("comm: rank %d failed: %v", e.Rank, e.Err)
	}
}

// Unwrap exposes the cause to errors.Is/As.
func (e *RankError) Unwrap() error { return e.Err }

// abortPanic is the internal unwind sentinel: a blocked or faulted
// communication primitive panics with it after the world has recorded the
// abort cause, and the rank goroutine's recovery in RunErr absorbs it
// (the cause is already on the world, so the unwind itself carries nothing).
type abortPanic struct{}

// isAbortPanic reports whether a recovered panic value is the unwind
// sentinel, whose cause the world has already recorded.
func isAbortPanic(e any) bool { _, ok := e.(abortPanic); return ok }

// toError converts a recovered panic value into an error.
func toError(e any) error {
	if err, ok := e.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", e)
}
