package distmm

import (
	"math"
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// sbmAdj builds a stochastic-block-model normalized adjacency, the
// community-structured counterpart to the ER graphs of the other tests.
func sbmAdj(n, k, degIn, degOut int, seed int64) *sparse.CSR {
	g, _ := gen.SBM(n, k, degIn, degOut, seed)
	return g.NormalizedAdjacency()
}

// planCandidate is one engine construction the fidelity tests sweep.
type planCandidate struct {
	name string
	make func(w *comm.World, a *sparse.CSR, n int) Engine
}

// planCandidates enumerates every trainable engine buildable at world size
// p (1D always; 1.5D for each c with c | p and c² | p).
func planCandidates(p int) []planCandidate {
	cands := []planCandidate{
		{"oblivious-1d", func(w *comm.World, a *sparse.CSR, n int) Engine {
			return NewOblivious1D(w, a, UniformLayout(n, p))
		}},
		{"sparsity-aware-1d", func(w *comm.World, a *sparse.CSR, n int) Engine {
			return NewSparsityAware1D(w, a, UniformLayout(n, p))
		}},
	}
	for _, c := range []int{2, 4} {
		if p%c != 0 || (p/c)%c != 0 {
			continue
		}
		c := c
		cands = append(cands,
			planCandidate{"oblivious-1.5d", func(w *comm.World, a *sparse.CSR, n int) Engine {
				return NewOblivious15D(w, a, c, UniformLayout(n, p/c))
			}},
			planCandidate{"sparsity-aware-1.5d", func(w *comm.World, a *sparse.CSR, n int) Engine {
				return NewSparsityAware15D(w, a, c, UniformLayout(n, p/c))
			}})
	}
	return cands
}

// TestPlanVolumesMatchMeasured is the plan-fidelity property: for random ER
// and SBM graphs and every algorithm at P ∈ {4, 8, 16}, the per-rank
// volumes Plan.Volumes predicts by walking the schedule must equal — to the
// byte and the message — what comm.Stats measures when the plan executes.
func TestPlanVolumesMatchMeasured(t *testing.T) {
	const n, f = 96, 7
	graphs := []struct {
		name string
		a    *sparse.CSR
	}{
		{"er", gen.ErdosRenyi(n, 5, 11).NormalizedAdjacency()},
		{"sbm", sbmAdj(n, 4, 8, 2, 12)},
	}
	for _, g := range graphs {
		h := dense.NewRandom(rand.New(rand.NewSource(13)), n, f, 1.0)
		for _, p := range []int{4, 8, 16} {
			for _, cand := range planCandidates(p) {
				w := comm.NewWorld(p, machine.Perlmutter())
				e := cand.make(w, g.a, n)
				pred := e.Plan().Volumes(f)
				runMultiply(t, w, e, h)
				for rank := 0; rank < p; rank++ {
					if got, want := w.Stats().BytesSent(rank), pred[rank].SentBytes; got != want {
						t.Errorf("%s/%s p=%d rank %d: sent %d, plan predicts %d", g.name, e.Name(), p, rank, got, want)
					}
					if got, want := w.Stats().BytesRecv(rank), pred[rank].RecvBytes; got != want {
						t.Errorf("%s/%s p=%d rank %d: recv %d, plan predicts %d", g.name, e.Name(), p, rank, got, want)
					}
					if got, want := w.Stats().MsgsSent(rank), pred[rank].MsgsSent; got != want {
						t.Errorf("%s/%s p=%d rank %d: %d msgs, plan predicts %d", g.name, e.Name(), p, rank, got, want)
					}
				}
			}
		}
	}
}

// TestPlanCostMatchesExecutedLedger pins the other half of plan fidelity:
// Cost applies exactly the charges the executor applies, so a plan's
// modeled breakdown must equal the ledger delta of actually running it.
func TestPlanCostMatchesExecutedLedger(t *testing.T) {
	const n, f = 96, 7
	a := randomSym(1234, n, 5)
	h := dense.NewRandom(rand.New(rand.NewSource(99)), n, f, 1.0)
	for _, p := range []int{4, 8} {
		for _, cand := range planCandidates(p) {
			w := comm.NewWorld(p, machine.Perlmutter())
			e := cand.make(w, a, n)
			want := e.Plan().Cost(w.Params, f)
			runMultiply(t, w, e, h)
			got := w.Ledger.Snapshot()
			wantBD := want.Breakdown()
			for _, ph := range got.Phases() {
				g, wv := got.PhaseMax(ph), wantBD[ph]
				if math.Abs(g-wv) > 1e-15*math.Max(1, math.Abs(g)) {
					t.Errorf("%s p=%d phase %s: executed %g, plan cost %g", e.Name(), p, ph, g, wv)
				}
			}
			if len(wantBD) != len(got.Phases()) {
				t.Errorf("%s p=%d: cost phases %v, ledger phases %v", e.Name(), p, wantBD, got.Phases())
			}
			if math.Abs(got.Total()-want.Total()) > 1e-15*math.Max(1, got.Total()) {
				t.Errorf("%s p=%d: executed total %g, plan total %g", e.Name(), p, got.Total(), want.Total())
			}
		}
	}
}
