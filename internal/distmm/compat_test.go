package distmm

import (
	"math"
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/machine"
)

// TestOverlapBitIdenticalToSequential pins the compatibility shim: an
// engine set to ExecOverlap runs the one executor, so its output bits, the
// bytes and messages every rank moves, and every rank's ledger charges are
// those of an ExecSequential engine. The benchmark's overlap rung times
// exactly this.
func TestOverlapBitIdenticalToSequential(t *testing.T) {
	const n, f = 96, 7
	a := randomSym(21, n, 5)
	h := dense.NewRandom(rand.New(rand.NewSource(22)), n, f, 1.0)
	for _, p := range []int{4, 8, 16} {
		for _, cand := range planCandidates(p) {
			var outs [2]*dense.Matrix
			var worlds [2]*comm.World
			for i, mode := range []ExecMode{ExecSequential, ExecOverlap} {
				worlds[i] = comm.NewWorld(p, machine.Perlmutter())
				e := cand.make(worlds[i], a, n)
				e.SetExecMode(mode)
				outs[i] = runMultiply(t, worlds[i], e, h)
			}
			for i, v := range outs[0].Data {
				if math.Float64bits(outs[1].Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s p=%d: element %d: sequential %v, overlap %v", cand.name, p, i, v, outs[1].Data[i])
				}
			}
			seq, ovl := worlds[0].Stats(), worlds[1].Stats()
			seqL, ovlL := worlds[0].Ledger.Snapshot(), worlds[1].Ledger.Snapshot()
			for r := 0; r < p; r++ {
				if seq.BytesSent(r) != ovl.BytesSent(r) || seq.BytesRecv(r) != ovl.BytesRecv(r) || seq.MsgsSent(r) != ovl.MsgsSent(r) {
					t.Errorf("%s p=%d rank %d: sequential moved (%d, %d, %d), overlap (%d, %d, %d)", cand.name, p, r,
						seq.BytesSent(r), seq.BytesRecv(r), seq.MsgsSent(r), ovl.BytesSent(r), ovl.BytesRecv(r), ovl.MsgsSent(r))
				}
				if math.Float64bits(seqL.RankTotal(r)) != math.Float64bits(ovlL.RankTotal(r)) {
					t.Errorf("%s p=%d rank %d: sequential charged %g, overlap %g", cand.name, p, r, seqL.RankTotal(r), ovlL.RankTotal(r))
				}
			}
			if got, want := ovlL.Breakdown(), seqL.Breakdown(); len(got) != len(want) {
				t.Errorf("%s p=%d: phases %v, want %v", cand.name, p, got, want)
			} else {
				for ph, v := range want {
					if math.Float64bits(got[ph]) != math.Float64bits(v) {
						t.Errorf("%s p=%d phase %s: overlap %g, sequential %g", cand.name, p, ph, got[ph], v)
					}
				}
			}
		}
	}
}

// TestOverlapVolumesMatchPlan extends the plan-fidelity volume property to
// an engine set to ExecOverlap: it moves the bytes and messages Plan.Volumes
// predicts, so Plan.Volumes needs no mode parameter.
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
