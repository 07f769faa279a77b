package comm

import (
	"context"
	"time"
)

// capInlineWrites makes every inline write of w's wire sends stop after k
// bytes of its frame (k < 0 lifts the cap), so a test can split frames
// between the sending rank and the writer goroutine at chosen points.
func capInlineWrites(w *World, k int) { w.net.inlineCap = k }

// SendOwned delivers a tagged float payload to dst without copying: the
// buffer itself (typically from GetFloats) is handed to the transport and
// recycled once delivered, and the caller must not touch floats afterwards.
func (r *Rank) SendOwned(dst, tag int, floats []float64, phase string) {
	r.send(dst, tag, floats, true, phase)
}

// RecvInto is TryRecvInto with misuse panicking, which the launcher reports
// as the run's *RankError.
func (r *Rank) RecvInto(src, tag int, dst []float64) {
	if err := r.TryRecvInto(src, tag, dst); err != nil {
		panic(err)
	}
}

// RunTimeout is RunCtx under a wall-clock deadline: a run that has not
// completed within d aborts and returns a *RankError wrapping
// context.DeadlineExceeded.
func (w *World) RunTimeout(d time.Duration, fn func(r *Rank) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return w.RunCtx(ctx, fn)
}
