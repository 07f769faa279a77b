package sparse

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"sagnn/internal/dense"
)

// TestNnzColsBruteForce cross-checks NnzColsInRange against a direct scan.
func TestNnzColsBruteForce(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewRandom(rng, 24, 0.15)
		lo := int(loRaw) % 24
		hi := lo + int(hiRaw)%(25-lo)
		got := m.NnzColsInRange(ColRange{Lo: lo, Hi: hi})
		want := map[int]bool{}
		for _, c := range m.ToCoords() {
			if c.Col >= lo && c.Col < hi {
				want[c.Col-lo] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		if !sort.IntsAreSorted(got) {
			return false
		}
		for _, c := range got {
			if !want[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockDecompositionCoversMatrix verifies that splitting into block
// rows and columns and reassembling loses nothing — the invariant the
// distributed engines depend on.
func TestBlockDecompositionCoversMatrix(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		m := NewRandom(rng, n, 0.12)
		p := 1 + int(pRaw)%5
		total := 0
		for i := 0; i < p; i++ {
			rlo, rhi := i*n/p, (i+1)*n/p
			rb := m.RowBlock(rlo, rhi)
			for j := 0; j < p; j++ {
				clo, chi := j*n/p, (j+1)*n/p
				blk := rb.ExtractBlock(ColRange{Lo: 0, Hi: rhi - rlo}, ColRange{Lo: clo, Hi: chi})
				total += blk.NNZ()
				// every entry maps back to the original
				for _, c := range blk.ToCoords() {
					if m.At(rlo+c.Row, clo+c.Col) != c.Val {
						return false
					}
				}
			}
		}
		return total == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPermutationIsSimilarityForSpMM: (P A Pᵀ)(P H) = P (A H) — the
// identity that makes partitioned training produce identical results.
func TestPermutationIsSimilarityForSpMM(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		a := NewRandom(rng, n, 0.2)
		h := dense.NewRandom(rng, n, 4, 1.0)
		perm := rng.Perm(n)
		pa := a.PermuteSymmetric(perm)
		ph := h.PermuteRows(perm)
		lhs := pa.SpMM(ph)
		rhs := a.SpMM(h).PermuteRows(perm)
		return lhs.MaxAbsDiff(rhs) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeSpMMAdjoint: (Aᵀ H) computed via Transpose matches the
// explicit dense computation, A densified and read transposed by
// MatMulTransA — backs the mini-batch backward pass.
func TestTransposeSpMMAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewCSR(6, 9, []Coord{
		{0, 3, 2}, {2, 8, -1}, {5, 0, 0.5}, {1, 1, 3}, {4, 4, 1},
	})
	h := dense.NewRandom(rng, 6, 3, 1.0)
	got := a.Transpose().SpMM(h)
	want := dense.New(9, h.Cols)
	dense.MatMulTransAInto(want, a.ToDense(), h)
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("adjoint mismatch %g", got.MaxAbsDiff(want))
	}
}

// TestCompactColsRoundTrip verifies compact-then-expand preserves SpMM
// results, the core sparsity-aware correctness argument: m with its columns
// renamed to positions in its nonzero-column list, times only those rows of
// h, is m times h.
func TestCompactColsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 18
		m := NewRandom(rng, n, 0.15)
		h := dense.NewRandom(rng, n, 3, 1.0)
		want := m.SpMM(h)

		nnz := m.NnzColsInRange(ColRange{Lo: 0, Hi: n})
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		compact := m.Submatrix(rows, nnz, nil)
		hCompact := dense.New(len(nnz), h.Cols)
		h.GatherRowsInto(hCompact.Data, nnz)
		got := compact.SpMM(hCompact)
		return got.MaxAbsDiff(want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCSRStructuralInvariants checks the representation invariants after
// every construction path.
func TestCSRStructuralInvariants(t *testing.T) {
	check := func(m *CSR) {
		if len(m.RowPtr) != m.NumRows+1 || m.RowPtr[0] != 0 || m.RowPtr[m.NumRows] != m.NNZ() {
			t.Fatalf("rowptr invariant broken: %v", m.RowPtr)
		}
		for r := 0; r < m.NumRows; r++ {
			if m.RowPtr[r] > m.RowPtr[r+1] {
				t.Fatal("rowptr not monotone")
			}
			cols := m.ColIdx[m.RowPtr[r]:m.RowPtr[r+1]]
			if !sort.IntsAreSorted(cols) {
				t.Fatalf("row %d columns unsorted: %v", r, cols)
			}
			for i := 1; i < len(cols); i++ {
				if cols[i] == cols[i-1] {
					t.Fatal("duplicate column survived construction")
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(10))
	m := NewRandom(rng, 40, 0.1)
	check(m)
	check(m.Transpose())
	check(m.PermuteSymmetric(rng.Perm(40)))
	check(m.RowBlock(5, 25))
	check(m.ExtractBlock(ColRange{0, 20}, ColRange{10, 40}))
	check(NewCSR(3, 3, nil))
}

// TestToCoordsSorted ensures deterministic serialization order.
func TestToCoordsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewRandom(rng, 15, 0.3)
	coords := m.ToCoords()
	sorted := sort.SliceIsSorted(coords, func(i, j int) bool {
		if coords[i].Row != coords[j].Row {
			return coords[i].Row < coords[j].Row
		}
		return coords[i].Col < coords[j].Col
	})
	if !sorted {
		t.Fatal("ToCoords not sorted")
	}
	m2 := NewCSR(15, 15, coords)
	if !reflect.DeepEqual(m.Val, m2.Val) {
		t.Fatal("rebuild changed values")
	}
}
