package distmm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// requireExchangeAndSweep fails unless every rank's program is Algorithm
// 1's two instructions: the exchange, then the sweep.
func requireExchangeAndSweep(t *testing.T, plan *Plan) {
	t.Helper()
	for rank, prog := range plan.progs {
		if len(prog) != 2 || prog[0].op != opAllToAllv || prog[1].op != opMulOwn {
			t.Fatalf("%s: rank %d runs %d instructions, want an all-to-allv and a sweep", plan.name, rank, len(prog))
		}
	}
}

// slotBySlotCost prices plan the way its per-block form charged: per rank,
// the exchange's pack and transfer, then the diagonal block, one multiply
// per non-empty peer block in ascending peer order, and the unpack of every
// such block's rows.
func slotBySlotCost(plan *Plan, sched *nnzSchedule, params machine.Params, f int) *machine.Snapshot {
	l := machine.NewLedger(len(plan.progs))
	for rank, prog := range plan.progs {
		packElems, sendB, recvB, partners := a2aStats(&prog[0], f)
		l.Add(rank, "local", params.CopyTime(packElems*machine.BytesPerElem))
		l.Add(rank, "alltoall", params.AllToAllvTime(sendB, recvB, partners))
		l.Add(rank, "local", params.SpMMTime(sched.diag[rank].Flops(f)))
		var unpacked int64
		for j := range sched.recvIdx[rank] {
			if blk := sched.slots(rank, j, j+1); j != rank && blk.NumCols > 0 {
				l.Add(rank, "local", params.SpMMTime(blk.Flops(f)))
				unpacked += int64(blk.NumCols * f)
			}
		}
		l.Add(rank, "local", params.CopyTime(unpacked*machine.BytesPerElem))
	}
	return l.Snapshot()
}

// requireSameTotals fails unless got and want charge every rank the same
// seconds in every phase.
func requireSameTotals(t *testing.T, what string, want, got *machine.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: charged %v, want %v", what, got, want)
	}
}

// TestSweepMatchesSlotBySlot: the sparsity-aware 1D engine's local sweep
// gives the bits of a zeroed accumulator plus the diagonal block's and then
// each peer block's multiply (SampledGatherReference over the layout's block
// rows, which is that serial form), charges what Plan.Cost predicts and the
// per-block form charged, to the bit, and its rank without off-diagonal
// entries, its silent partner and its empty rows are all present in the
// compiled plan of one exchange and one sweep per rank.
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
			requireExchangeAndSweep(t, plan)
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
			what := fmt.Sprintf("seed %d width %d", seed, f)
			ran := w.Ledger.Snapshot()
			requireSameTotals(t, what+" plan cost", plan.Cost(w.Params, f), ran)
			requireSameTotals(t, what+" per-block form", slotBySlotCost(plan, buildNnzSchedule(layoutRows(a, layout), layout, nil, new(nnzSchedule)), w.Params, f), ran)
		}
	}
}

// TestSweepSampledMixedSlots: a sampled step whose slots mix landings that
// fill their halo rows in place with fill-mapped ones assembled from a
// smaller landing and the resident store equals the serial slot-by-slot
// reference bit for bit, step after step, and its plan prices what the
// per-block form charged.
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
		requireExchangeAndSweep(t, plan)
		for _, prog := range plan.progs {
			exch := &prog[0]
			for j, fl := range exch.fills {
				switch {
				case exch.at[j+1] == exch.at[j]:
				case fl.fill == nil:
					inPlace++
				default:
					filled++
					for _, src := range fl.fill {
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
		sched := buildNnzSchedule(frontierRows(blocks), layout, nil, new(nnzSchedule))
		requireSameTotals(t, fmt.Sprintf("step %d", step), slotBySlotCost(plan, sched, w.Params, f), plan.Cost(w.Params, f))
	}
	if inPlace == 0 || filled == 0 || stored == 0 {
		t.Fatalf("steps swept %d in-place and %d fill-mapped slots reading %d store rows; want all three", inPlace, filled, stored)
	}
}
