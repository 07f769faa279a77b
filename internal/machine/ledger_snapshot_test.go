package machine

import (
	"math"
	"testing"
)

// TestLedgerSnapshotDelta checks that snapshot subtraction isolates one
// run's charges on a shared ledger — the mutation-free replacement for
// Scale(1/epochs).
func TestLedgerSnapshotDelta(t *testing.T) {
	l := NewLedger(2)
	l.Add(0, "bcast", 1.0)
	l.Add(1, "bcast", 2.0)
	l.Add(0, "local", 0.5)
	before := l.Snapshot()

	// Second "run" charges more time, including a phase the first never saw.
	l.Add(0, "bcast", 3.0)
	l.Add(1, "local", 1.5)
	l.Add(0, "alltoall", 0.25)
	delta := l.Snapshot().Sub(before)

	if got := delta.PhaseMax("bcast"); got != 3.0 {
		t.Fatalf("bcast delta max %v", got)
	}
	if got := delta.PhaseMax("local"); got != 1.5 {
		t.Fatalf("local delta max %v", got)
	}
	if got := delta.PhaseMax("alltoall"); got != 0.25 {
		t.Fatalf("alltoall delta max %v", got)
	}
	if got, want := delta.Total(), 3.0+1.5+0.25; math.Abs(got-want) > 1e-15 {
		t.Fatalf("delta total %v, want %v", got, want)
	}

	// The ledger itself is untouched: totals still include the first run.
	if got := l.Snapshot().PhaseMax("bcast"); got != 4.0 {
		t.Fatalf("ledger mutated: bcast max %v", got)
	}

	// Scaling a snapshot converts to per-epoch figures without mutation.
	per := delta.Scale(0.5)
	if got := per.PhaseMax("bcast"); got != 1.5 {
		t.Fatalf("scaled bcast %v", got)
	}
	if got := delta.PhaseMax("bcast"); got != 3.0 {
		t.Fatalf("Scale mutated its receiver: %v", got)
	}
	bd := per.Breakdown()
	if len(bd) != 3 {
		t.Fatalf("breakdown %v", bd)
	}

	// A snapshot minus itself is zero in every phase it holds.
	now := l.Snapshot()
	zero := now.Sub(now)
	if got := zero.Total(); got != 0 {
		t.Fatalf("self-difference total %v", got)
	}
	if len(zero.Breakdown()) != 3 {
		t.Fatalf("self-difference dropped phases: %v", zero.Breakdown())
	}
}

// TestLedgerSnapshotSubNil treats a nil baseline as zero.
func TestLedgerSnapshotSubNil(t *testing.T) {
	l := NewLedger(1)
	l.Add(0, "local", 2.0)
	if got := l.Snapshot().Sub(nil).Total(); got != 2.0 {
		t.Fatalf("total %v", got)
	}
}
