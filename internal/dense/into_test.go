package dense

import (
	"math/rand"
	"testing"
)

// TestIntoVariantsMatchAllocating pins every *Into kernel against its
// allocating counterpart bit-for-bit, and checks that a warm workspace call
// allocates nothing.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a := NewRandom(rng, 13, 9, 1.0)
	b := NewRandom(rng, 13, 7, 1.0)
	bt := NewRandom(rng, 11, 9, 1.0) // for a×bᵀ: cols match a
	idx := []int{4, 0, 12, 7, 7}

	t.Run("MatMulTransA", func(t *testing.T) {
		want := MatMulTransA(a, b)
		got := New(a.Cols, b.Cols)
		MatMulTransAInto(got, a, b)
		requireIdentical(t, want, got)
		mustNotAllocate(t, func() { MatMulTransAInto(got, a, b) })
	})
	t.Run("MatMulTransB", func(t *testing.T) {
		want := MatMulTransB(a, bt)
		got := New(a.Rows, bt.Rows)
		MatMulTransBInto(got, a, bt)
		requireIdentical(t, want, got)
		mustNotAllocate(t, func() { MatMulTransBInto(got, a, bt) })
	})
	t.Run("GatherRows", func(t *testing.T) {
		want := a.GatherRows(idx)
		got := New(len(idx), a.Cols)
		a.GatherRowsInto(got.Data, idx)
		requireIdentical(t, want, got)
		mustNotAllocate(t, func() { a.GatherRowsInto(got.Data, idx) })
	})
	t.Run("HStack", func(t *testing.T) {
		want := HStack(a, b)
		got := New(a.Rows, a.Cols+b.Cols)
		HStackInto(got, a, b)
		requireIdentical(t, want, got)
		mustNotAllocate(t, func() { HStackInto(got, a, b) })
	})
	t.Run("ReLUDeriv", func(t *testing.T) {
		want := a.ReLUDeriv()
		got := NewRandom(rng, a.Rows, a.Cols, 1.0) // dirty destination
		a.ReLUDerivInto(got)
		requireIdentical(t, want, got)
		mustNotAllocate(t, func() { a.ReLUDerivInto(got) })
	})
	t.Run("SplitCols", func(t *testing.T) {
		wantL, wantR := a.SplitCols(4)
		gotL, gotR := New(a.Rows, 4), New(a.Rows, a.Cols-4)
		a.SplitColsInto(gotL, gotR)
		requireIdentical(t, wantL, gotL)
		requireIdentical(t, wantR, gotR)
		mustNotAllocate(t, func() { a.SplitColsInto(gotL, gotR) })
	})
	t.Run("CopyFrom", func(t *testing.T) {
		got := NewRandom(rng, a.Rows, a.Cols, 1.0)
		got.CopyFrom(a)
		requireIdentical(t, a, got)
		mustNotAllocate(t, func() { got.CopyFrom(a) })
	})
}

func requireIdentical(t *testing.T, want, got *Matrix) {
	t.Helper()
	requireSameBits(t, "in-place kernel", want, got)
}

func mustNotAllocate(t *testing.T, fn func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(10, fn); allocs > 0 {
		t.Fatalf("in-place kernel allocates %v times, want 0", allocs)
	}
}
