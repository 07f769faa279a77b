package distmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// sweepMatrix is an n×n operand over a uniform P = 4 layout of 16-row
// blocks with the shapes the sweep must handle: rows with no entries at all,
// rows with no diagonal-block entries, rank 3's block row with no entries
// outside its diagonal block, and rank 0 needing nothing from rank 2 (a
// silent partner: it lands zero rows from it).
func sweepMatrix(seed int64) *sparse.CSR {
	const n = 64
	rng := rand.New(rand.NewSource(seed))
	var coords []sparse.Coord
	for r := 0; r < n; r++ {
		if r%7 == 3 {
			continue // an empty row
		}
		for k := 0; k < 6; k++ {
			c := rng.Intn(n)
			switch {
			case r >= 48 && c < 48: // rank 3: diagonal block only
				c = 48 + c%16
			case r < 16 && c >= 32 && c < 48: // rank 0: nothing from rank 2
				continue
			case r%5 == 1 && c/16 == r/16: // no diagonal-block entries
				continue
			}
			coords = append(coords, sparse.Coord{Row: r, Col: c, Val: rng.NormFloat64()})
		}
	}
	return sparse.NewCSR(n, n, coords)
}

// requireBits fails unless got equals want bit for bit.
func requireBits(t *testing.T, what string, want, got *dense.Matrix) {
	t.Helper()
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %g, want %g", what, i, got.Data[i], v)
		}
	}
}

// TestSweepMatchesSlotBySlot: the sparsity-aware 1D engine's local sweep
// gives the bits of a zeroed accumulator plus the diagonal block's and then
// each peer block's multiply (SampledGatherReference over the layout's block
// rows, which is that serial form), charges what Plan.Cost predicts to the
// bit, and its rank without off-diagonal entries, its silent partner and
// its empty rows are all present in the compiled plan.
func TestSweepMatchesSlotBySlot(t *testing.T) {
	const n, p = 64, 4
	for seed := int64(1); seed <= 3; seed++ {
		a := sweepMatrix(seed)
		layout := UniformLayout(n, p)
		rows := make([]*sparse.CSR, p)
		for i := range rows {
			lo, hi := layout.Range(i)
			rows[i] = a.RowBlock(lo, hi)
		}
		for _, f := range []int{1, 7, 16, 33} {
			h := dense.NewRandom(rand.New(rand.NewSource(seed+10)), n, f, 1.0)
			w := comm.NewWorld(p, machine.Perlmutter())
			e := NewSparsityAware1D(w, a, layout)
			plan := e.Plan()
			if err := Verify(plan); err != nil {
				t.Fatal(err)
			}
			if a2a := plan.progs[0][0]; a2a.recvRows[2] != 0 || a2a.halo == nil {
				t.Fatalf("rank 0 lands %d rows from rank 2, want a silent partner", a2a.recvRows[2])
			}
			if h3 := plan.progs[3][0].halo; h3.NumCols != 0 || h3.NNZ() != 0 {
				t.Fatalf("rank 3's merged operand is %dx%d with %d entries, want none", h3.NumRows, h3.NumCols, h3.NNZ())
			}
			got := runMultiply(t, w, e, h)
			want := SampledGatherReference(rows, layout, h)
			for i := range want {
				lo, hi := layout.Range(i)
				requireBits(t, fmt.Sprintf("seed %d width %d rank %d", seed, f, i), want[i], got.SliceRows(lo, hi))
			}
			ran, cost := w.Ledger.Snapshot(), plan.Cost(w.Params, f)
			for r := 0; r < p; r++ {
				if math.Float64bits(ran.RankTotal(r)) != math.Float64bits(cost.RankTotal(r)) {
					t.Fatalf("seed %d width %d rank %d: charged %g, plan cost %g", seed, f, r, ran.RankTotal(r), cost.RankTotal(r))
				}
			}
		}
	}
}

// TestSweepSampledMixedSlots: a sampled step whose slots mix landings that
// fill their halo rows in place with fill-mapped ones assembled from a
// smaller landing and the resident store equals the serial slot-by-slot
// reference bit for bit, step after step.
func TestSweepSampledMixedSlots(t *testing.T) {
	const n, f, p = 64, 5, 4
	layout := UniformLayout(n, p)
	x := dense.NewRandom(rand.New(rand.NewSource(3)), n, f, 1)
	w := comm.NewWorld(p, machine.Perlmutter())
	rng := rand.New(rand.NewSource(21))
	blocks := randomFrontiers(rng, p, n)
	g := NewSampledGather(w, blocks, layout)
	var inPlace, filled, stored int
	for step := 0; step < 6; step++ {
		if step > 0 {
			blocks = randomFrontiers(rng, p, n)
			g.Recompile(blocks)
		}
		plan := g.Plan()
		if err := Verify(plan); err != nil {
			t.Fatal(err)
		}
		for _, prog := range plan.progs {
			for _, in := range prog[2:] {
				switch {
				case in.op != opMulRecvSlot:
				case in.fill == nil:
					inPlace++
				default:
					filled++
					for _, src := range in.fill {
						if src < 0 {
							stored++
						}
					}
				}
			}
		}
		want := SampledGatherReference(blocks, layout, x)
		for r, got := range runSampledGather(w, g, x, layout) {
			requireBits(t, "sampled sweep", want[r], got)
		}
	}
	if inPlace == 0 || filled == 0 || stored == 0 {
		t.Fatalf("steps swept %d in-place and %d fill-mapped slots reading %d store rows; want all three", inPlace, filled, stored)
	}
}
