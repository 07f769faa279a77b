package distmm

import (
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// TestOverlapBitIdenticalToSequential pins the overlap executor's core
// contract: pipelining must never change a single bit of the output,
// because the compute operations join at their data dependencies and run in
// the sequential program order.
func TestOverlapBitIdenticalToSequential(t *testing.T) {
	const n, f = 96, 7
	a := randomSym(21, n, 5)
	h := dense.NewRandom(rand.New(rand.NewSource(22)), n, f, 1.0)
	for _, p := range []int{4, 8, 16} {
		for _, cand := range planCandidates(p) {
			wSeq := comm.NewWorld(p, machine.Perlmutter())
			seq := runMultiply(t, wSeq, cand.make(wSeq, a, n), h)

			wOvl := comm.NewWorld(p, machine.Perlmutter())
			e := cand.make(wOvl, a, n)
			e.SetExecMode(ExecOverlap)
			ovl := runMultiply(t, wOvl, e, h)
			for i, v := range seq.Data {
				if ovl.Data[i] != v {
					t.Fatalf("%s p=%d: element %d differs: sequential %v, overlap %v",
						e.Name(), p, i, v, ovl.Data[i])
					break
				}
			}
		}
	}
}

// TestOverlapVolumesMatchPlan extends the plan-fidelity volume property to
// the overlapped executor: pipelining moves the same bytes in the same
// messages, so Plan.Volumes needs no mode parameter.
func TestOverlapVolumesMatchPlan(t *testing.T) {
	const n, f = 96, 7
	a := randomSym(23, n, 5)
	h := dense.NewRandom(rand.New(rand.NewSource(24)), n, f, 1.0)
	for _, p := range []int{4, 8, 16} {
		for _, cand := range planCandidates(p) {
			w := comm.NewWorld(p, machine.Perlmutter())
			e := cand.make(w, a, n)
			e.SetExecMode(ExecOverlap)
			pred := e.Plan().Volumes(f)
			runMultiply(t, w, e, h)
			for rank := 0; rank < p; rank++ {
				if got, want := w.Stats().BytesSent(rank), pred[rank].SentBytes; got != want {
					t.Errorf("%s p=%d rank %d: sent %d, plan predicts %d", e.Name(), p, rank, got, want)
				}
				if got, want := w.Stats().BytesRecv(rank), pred[rank].RecvBytes; got != want {
					t.Errorf("%s p=%d rank %d: recv %d, plan predicts %d", e.Name(), p, rank, got, want)
				}
				if got, want := w.Stats().MsgsSent(rank), pred[rank].MsgsSent; got != want {
					t.Errorf("%s p=%d rank %d: %d msgs, plan predicts %d", e.Name(), p, rank, got, want)
				}
			}
		}
	}
}

// TestOverlapCostMatchesExecutedLedger is the overlap half of the
// plan-fidelity cost property — and it is stricter than the sequential one:
// the overlapped executor settles modeled time through the exact emission
// walk CostWith(ExecOverlap) prices, so the executed ledger must equal the
// prediction float-for-float, not merely within tolerance.
func TestOverlapCostMatchesExecutedLedger(t *testing.T) {
	const n, f = 96, 7
	a := randomSym(25, n, 5)
	h := dense.NewRandom(rand.New(rand.NewSource(26)), n, f, 1.0)
	for _, p := range []int{4, 8, 16} {
		for _, cand := range planCandidates(p) {
			w := comm.NewWorld(p, machine.Perlmutter())
			e := cand.make(w, a, n)
			e.SetExecMode(ExecOverlap)
			want := e.Plan().CostWith(w.Params, f, ExecOverlap)
			runMultiply(t, w, e, h)
			got := w.Ledger.Snapshot()
			wantBD := want.Breakdown()
			for _, ph := range got.Phases() {
				if g, wv := got.PhaseMax(ph), wantBD[ph]; g != wv {
					t.Errorf("%s p=%d phase %s: executed %g, overlap cost %g", e.Name(), p, ph, g, wv)
				}
			}
			if len(wantBD) != len(got.Phases()) {
				t.Errorf("%s p=%d: cost phases %v, ledger phases %v", e.Name(), p, wantBD, got.Phases())
			}
			if got.Total() != want.Total() {
				t.Errorf("%s p=%d: executed total %g, overlap cost total %g", e.Name(), p, got.Total(), want.Total())
			}
		}
	}
}

// TestOverlapCostNeverExceedsSequential pins the point of pipelining: the
// modeled overlapped epoch can only hide communication, never add to it.
// Because pack/unpack copies keep their sequential "local" phase (they run
// on the rank's own goroutine in the overlapped executor too), the bound
// holds per rank, per phase, and hence for the bulk-synchronous Total. The
// star graph at a larger size is the adversarial case: its hub rank's pack
// time dwarfs every other rank's, which is exactly the shape that broke an
// earlier formulation charging packing to the communication phase.
func TestOverlapCostNeverExceedsSequential(t *testing.T) {
	graphs := []struct {
		name string
		n    int
		a    *sparse.CSR
	}{
		{"er", 96, randomSym(27, 96, 6)},
		{"star", 1024, starGraph(1024).NormalizedAdjacency()},
	}
	for _, g := range graphs {
		for _, f := range []int{16, 128} {
			for _, p := range []int{4, 8, 16} {
				for _, cand := range planCandidates(p) {
					w := comm.NewWorld(p, machine.Perlmutter())
					e := cand.make(w, g.a, g.n)
					seq := e.Plan().CostWith(w.Params, f, ExecSequential)
					ovl := e.Plan().CostWith(w.Params, f, ExecOverlap)
					if ovl.Total() > seq.Total()*(1+1e-12) {
						t.Errorf("%s/%s p=%d f=%d: overlap total %g exceeds sequential %g",
							g.name, e.Name(), p, f, ovl.Total(), seq.Total())
					}
					seqBD, ovlBD := seq.Breakdown(), ovl.Breakdown()
					for ph, v := range ovlBD {
						if v > seqBD[ph]*(1+1e-12) {
							t.Errorf("%s/%s p=%d f=%d phase %s: overlap %g exceeds sequential %g",
								g.name, e.Name(), p, f, ph, v, seqBD[ph])
						}
					}
					for rank := 0; rank < p; rank++ {
						if o, s := ovl.RankTotal(rank), seq.RankTotal(rank); o > s*(1+1e-12) {
							t.Errorf("%s/%s p=%d f=%d rank %d: overlap %g exceeds sequential %g",
								g.name, e.Name(), p, f, rank, o, s)
						}
					}
				}
			}
		}
	}
}

// TestOverlapMultiplyIntoSteadyStateAllocs extends the steady-state
// allocation pin to the overlapped executor: after warm-up has sized the
// double buffers and spawned the per-rank comm workers, an overlapped
// collective stays within the same fixed budget as the sequential one — no
// per-stage or per-element allocation.
func TestOverlapMultiplyIntoSteadyStateAllocs(t *testing.T) {
	const n, f, p = 1024, 32, 8
	a := randomSym(7, n, 8)
	for _, mk := range []struct {
		name string
		make func(w *comm.World) Engine
	}{
		{"sparsity-aware-1d", func(w *comm.World) Engine { return NewSparsityAware1D(w, a, UniformLayout(n, p)) }},
		{"oblivious-1d", func(w *comm.World) Engine { return NewOblivious1D(w, a, UniformLayout(n, p)) }},
		{"sparsity-aware-1.5d", func(w *comm.World) Engine { return NewSparsityAware15D(w, a, 2, UniformLayout(n, p/2)) }},
	} {
		w := comm.NewWorld(p, machine.Perlmutter())
		e := mk.make(w)
		e.SetExecMode(ExecOverlap)
		lay := e.Layout()
		h := dense.NewRandom(rand.New(rand.NewSource(8)), n, f, 1.0)
		locals := make([]*dense.Matrix, p)
		outs := make([]*dense.Matrix, p)
		for rank := 0; rank < p; rank++ {
			b := e.BlockOf(rank)
			lo, hi := lay.Range(b)
			locals[rank] = h.SliceRows(lo, hi).Clone()
			outs[rank] = dense.New(hi-lo, f)
		}
		collective := func() {
			w.Run(func(r *comm.Rank) { e.MultiplyInto(r, locals[r.ID], outs[r.ID]) })
		}
		collective() // size double buffers, spawn workers

		const budget = 6 * p // same headroom as the sequential pin
		if allocs := testing.AllocsPerRun(10, collective); allocs > budget {
			t.Errorf("%s: steady-state overlapped collective allocates %v times, budget %d",
				mk.name, allocs, budget)
		}
	}
}
