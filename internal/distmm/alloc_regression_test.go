package distmm

import (
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/machine"
)

// TestMultiplyIntoSteadyStateAllocs pins every feasible engine's
// steady-state MultiplyInto at the launch floor: after a warm-up call has
// sized the per-rank workspaces, a collective allocates no more than a
// World.Run whose closure captures the same operands and does nothing.
// What is left is the launch's per-rank goroutine fan-out; a per-message,
// per-row or per-stage allocation shows above it. The count does not depend
// on n or f, so both are small enough for -race.
func TestMultiplyIntoSteadyStateAllocs(t *testing.T) {
	const n, f, p = 256, 8, 8
	a := randomSym(7, n, 8)
	h := dense.NewRandom(rand.New(rand.NewSource(8)), n, f, 1.0)
	for _, spec := range EnumerateCandidates(p) {
		if spec.Skip != "" {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			w := comm.NewWorld(p, machine.Perlmutter())
			e, err := NewEngine(w, spec.Name, spec.C, a, UniformLayout(n, p/spec.C))
			if err != nil {
				t.Fatal(err)
			}
			if allocs, floor := multiplyAllocs(w, e, h); allocs > floor {
				t.Errorf("steady-state collective allocates %v times, a bare launch %v", allocs, floor)
			}
		})
	}
}

// multiplyAllocs measures a warm MultiplyInto collective of h's rows and a
// bare launch capturing the same operands.
func multiplyAllocs(w *comm.World, e Engine, h *dense.Matrix) (allocs, floor float64) {
	lay := e.Layout()
	locals, outs := make([]*dense.Matrix, w.P), make([]*dense.Matrix, w.P)
	for rank := range locals {
		lo, hi := lay.Range(e.BlockOf(rank))
		locals[rank] = h.SliceRows(lo, hi).Clone()
		outs[rank] = dense.New(hi-lo, h.Cols)
	}
	collective := func() {
		w.Run(func(r *comm.Rank) { e.MultiplyInto(r, locals[r.ID], outs[r.ID]) })
	}
	bare := func() {
		w.Run(func(r *comm.Rank) { _, _, _ = e, locals[r.ID], outs[r.ID] })
	}
	collective() // size the workspaces
	// AllocsPerRun's mean is an integer division: over 100 runs it absorbs
	// the scheduler's occasional allocation under -race and load, while a
	// per-message allocation still adds one or more to every run.
	return testing.AllocsPerRun(100, collective), testing.AllocsPerRun(100, bare)
}
