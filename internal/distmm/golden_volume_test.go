package distmm

import (
	"math"
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/machine"
)

// The golden values below were recorded from the pre-workspace-refactor
// engines (seed graph randomSym(1234, 96, 5), H = NewRandom(seed 99, 96×7),
// P=4, c=2 for the 1.5D engines). They pin two invariants the paper's
// evaluation depends on:
//
//  1. Exact per-rank communication volumes — the headline metric (Table 2,
//     Figures 3–7) must be unaffected by buffer pooling and *Into
//     collectives.
//  2. Bit-stable engine outputs — the refactor reuses workspaces but must
//     not change a single accumulation order, so the checksum of Z is
//     pinned to the exact pre-refactor float64 bits.
type goldenRank struct {
	sent, recv, msgs int64
}

var goldenVolumes = map[string]struct {
	checksum uint64
	ranks    [4]goldenRank
}{
	"oblivious-1d": {
		checksum: 4627545849529018523,
		ranks: [4]goldenRank{
			{672, 2016, 1}, {672, 2016, 1}, {672, 2016, 1}, {672, 2016, 1},
		},
	},
	"sparsity-aware-1d": {
		checksum: 4627545849529018520,
		ranks: [4]goldenRank{
			{1372, 1400, 3}, {1456, 1484, 3}, {1344, 1428, 3}, {1540, 1400, 3},
		},
	},
	"oblivious-1.5d(c=2)": {
		checksum: 4627545849529018520,
		ranks: [4]goldenRank{
			{2688, 1344, 2}, {1344, 2688, 1}, {1344, 2688, 1}, {2688, 1344, 2},
		},
	},
	// Ranks 1 and 2 only receive in their column's all-to-allv, which
	// counts a message for each partner a rank exchanges rows with, in
	// either direction.
	"sparsity-aware-1.5d(c=2)": {
		checksum: 4627545849529018520,
		ranks: [4]goldenRank{
			{2632, 1344, 2}, {1344, 2548, 2}, {1344, 2632, 2}, {2548, 1344, 2},
		},
	},
}

// TestEnginesMatchSerialAndGoldenVolumes runs every engine on the fixed
// seed problem and asserts (a) agreement with the serial SpMM reference,
// (b) bit-identical outputs to the pre-refactor engines, and (c) per-rank
// send/recv volumes and message counts exactly equal to the golden record.
func TestEnginesMatchSerialAndGoldenVolumes(t *testing.T) {
	const n, f, p = 96, 7, 4
	a := randomSym(1234, n, 5)
	h := dense.NewRandom(rand.New(rand.NewSource(99)), n, f, 1.0)
	want := a.SpMM(h)

	engines := []struct {
		name string
		make func(w *comm.World) Engine
	}{
		{"oblivious-1d", func(w *comm.World) Engine { return NewOblivious1D(w, a, UniformLayout(n, p)) }},
		{"sparsity-aware-1d", func(w *comm.World) Engine { return NewSparsityAware1D(w, a, UniformLayout(n, p)) }},
		{"oblivious-1.5d(c=2)", func(w *comm.World) Engine { return NewOblivious15D(w, a, 2, UniformLayout(n, p/2)) }},
		{"sparsity-aware-1.5d(c=2)", func(w *comm.World) Engine { return NewSparsityAware15D(w, a, 2, UniformLayout(n, p/2)) }},
	}
	for _, mk := range engines {
		w := comm.NewWorld(p, machine.Perlmutter())
		e := mk.make(w)
		if e.Name() != mk.name {
			t.Fatalf("engine name %q, want %q", e.Name(), mk.name)
		}
		golden, ok := goldenVolumes[mk.name]
		if !ok {
			t.Fatalf("no golden record for %q", mk.name)
		}
		z := runMultiply(t, w, e, h)
		if d := z.MaxAbsDiff(want); d > 1e-10 {
			t.Errorf("%s: diff vs serial %g", mk.name, d)
		}
		sum := 0.0
		for _, v := range z.Data {
			sum += v
		}
		if bits := math.Float64bits(sum); bits != golden.checksum {
			t.Errorf("%s: output checksum bits %d, golden %d — engine output changed",
				mk.name, bits, golden.checksum)
		}
		// The plan-predicted volumes must hit the same golden record the
		// measured execution does — prediction and measurement are two
		// views of one schedule.
		pred := e.Plan().Volumes(f)
		for rank := 0; rank < p; rank++ {
			g := golden.ranks[rank]
			if got := w.Stats().BytesSent(rank); got != g.sent {
				t.Errorf("%s rank %d: sent %d bytes, golden %d", mk.name, rank, got, g.sent)
			}
			if got := w.Stats().BytesRecv(rank); got != g.recv {
				t.Errorf("%s rank %d: recv %d bytes, golden %d", mk.name, rank, got, g.recv)
			}
			if got := w.Stats().MsgsSent(rank); got != g.msgs {
				t.Errorf("%s rank %d: %d msgs, golden %d", mk.name, rank, got, g.msgs)
			}
			if pred[rank].SentBytes != g.sent || pred[rank].RecvBytes != g.recv || pred[rank].MsgsSent != g.msgs {
				t.Errorf("%s rank %d: plan predicts (%d,%d,%d), golden (%d,%d,%d)",
					mk.name, rank, pred[rank].SentBytes, pred[rank].RecvBytes, pred[rank].MsgsSent,
					g.sent, g.recv, g.msgs)
			}
		}
	}
}
