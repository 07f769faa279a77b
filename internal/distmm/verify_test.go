package distmm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
)

// This file is the Verify mutation suite: for every engine × P it clones the
// compiled plan, corrupts it one hazard class at a time — dropped receive,
// happens-before cycle, tag/size mismatch, broken group participation,
// aliased overlap buffer — and asserts the static checker rejects each with
// a typed, rank-attributed *VerifyError while the unmutated clone passes.
// The clones corrupt exactly the state a buggy compiler or a future plan
// transformation could produce; the executor never runs them.

// clonePlan deep-copies the instruction streams (instr values are copied;
// operand slices are shared and must be replaced, never mutated, by
// mutations) with a fresh pipeline cache.
func clonePlan(p *Plan) *Plan {
	q := &Plan{
		name:        p.name,
		world:       p.world,
		layout:      p.layout,
		replication: p.replication,
		partial:     p.partial,
		blockOf:     append([]int(nil), p.blockOf...),
		outRows:     append([]int(nil), p.outRows...),
		gradGroups:  append([]*comm.Group(nil), p.gradGroups...),
		progs:       make([][]instr, len(p.progs)),
	}
	for i, prog := range p.progs {
		q.progs[i] = append([]instr(nil), prog...)
	}
	return q
}

// planMutation is one hazard class: apply corrupts a cloned plan in place
// and reports whether the class applies to this plan's instruction mix;
// kind is the rejection Verify must classify it as.
type planMutation struct {
	name  string
	kind  VerifyKind
	apply func(p *Plan) bool
}

// dropRecv removes the first point-to-point receive, leaving its send
// unmatched.
func dropRecv(p *Plan) bool {
	for rank, prog := range p.progs {
		for site := range prog {
			if prog[site].op == opRecvMul {
				p.progs[rank] = append(append([]instr(nil), prog[:site]...), prog[site+1:]...)
				return true
			}
		}
	}
	return false
}

// swapSendRecvCycle reorders one rank's send-then-recv with the same peer
// into recv-then-send, closing a cross-rank wait cycle with the peer's
// (unchanged) recv-then-send order.
func swapSendRecvCycle(p *Plan) bool {
	for rank, prog := range p.progs {
		for s1 := range prog {
			if prog[s1].op != opSendRows {
				continue
			}
			peer := prog[s1].peer
			for s2 := s1 + 1; s2 < len(prog); s2++ {
				if prog[s2].op == opRecvMul && prog[s2].peer == peer {
					p.progs[rank][s1], p.progs[rank][s2] = prog[s2], prog[s1]
					return true
				}
			}
		}
	}
	return false
}

// mismatchTagOrSize corrupts one wire signature: a p2p tag bump where the
// plan has point-to-point traffic, a shrunken all-to-allv pack list, or a
// shifted broadcast root — whichever the instruction mix offers first. All
// leave the per-rank structure locally valid, so only cross-rank matching
// can catch them.
func mismatchTagOrSize(p *Plan) bool {
	for rank, prog := range p.progs {
		for site := range prog {
			if prog[site].op == opSendRows {
				p.progs[rank][site].tag++
				return true
			}
		}
	}
	for rank, prog := range p.progs {
		for site := range prog {
			in := &prog[site]
			if in.op != opAllToAllv {
				continue
			}
			for j := range in.sendIdx {
				if j != in.slot && len(in.sendIdx[j]) > 0 {
					send := append([][]int(nil), in.sendIdx...)
					send[j] = send[j][:len(send[j])-1]
					p.progs[rank][site].sendIdx = send
					return true
				}
			}
		}
	}
	for rank, prog := range p.progs {
		for site := range prog {
			in := &prog[site]
			if in.op != opBcastMul || in.own {
				continue
			}
			g := in.group
			for d := 1; d < g.Size(); d++ {
				root := (in.root + d) % g.Size()
				// Keep the local structure valid: not this rank (own flag) and
				// an equal-sized block (uniform layouts), so only the
				// cross-member root comparison can reject it.
				if g.Member(root) != rank && p.outRows[g.Member(root)] == in.rows {
					p.progs[rank][site].root = root
					return true
				}
			}
		}
	}
	return false
}

// breakParticipation makes one rank's collective sequence diverge from its
// group: drop a non-root broadcast entry, drop an all-to-allv (and its
// dependent consumers, so the per-rank structure stays valid), or duplicate
// an all-reduce.
func breakParticipation(p *Plan) bool {
	for rank, prog := range p.progs {
		for site := range prog {
			if prog[site].op == opBcastMul && !prog[site].own {
				p.progs[rank] = append(append([]instr(nil), prog[:site]...), prog[site+1:]...)
				return true
			}
		}
	}
	for rank, prog := range p.progs {
		for site := range prog {
			if prog[site].op != opAllToAllv {
				continue
			}
			keep := make([]instr, 0, len(prog))
			for i := range prog {
				switch {
				case i == site, prog[i].op == opMulRecvSlot, prog[i].op == opChargeUnpack:
				default:
					keep = append(keep, prog[i])
				}
			}
			p.progs[rank] = keep
			return true
		}
	}
	for rank, prog := range p.progs {
		for site := range prog {
			if prog[site].op == opAllReduce {
				p.progs[rank] = append(append([]instr(nil), prog...), prog[site])
				return true
			}
		}
	}
	return false
}

// aliasOverlapBuffer corrupts the cached pipeline decomposition: a compute
// instruction that consumes a stage's landing is moved to a different
// stage, so it would read a double-buffer parity half whose transfer is
// still in flight (or not yet issued).
func aliasOverlapBuffer(p *Plan) bool {
	for rank := range p.progs {
		pp := p.pipelineFor(rank) // force + expose the cache
		prog := p.progs[rank]
		for s := range pp.stages {
			for c, i := range pp.stages[s].comp {
				switch prog[i].op {
				case opBcastMul, opRecvMul, opMulRecvSlot:
				default:
					continue
				}
				st := &p.pipes[rank].stages[s]
				st.comp = append(append([]int(nil), st.comp[:c]...), st.comp[c+1:]...)
				if s > 0 {
					dst := &p.pipes[rank].stages[s-1]
					dst.comp = append(append([]int(nil), dst.comp...), i)
				} else if len(pp.stages) > 1 {
					dst := &p.pipes[rank].stages[s+1]
					dst.comp = append([]int{i}, dst.comp...)
				} else {
					return false
				}
				return true
			}
		}
	}
	return false
}

func verifyMutations() []planMutation {
	return []planMutation{
		{name: "drop-recv", kind: VerifyMatching, apply: dropRecv},
		{name: "send-recv-cycle", kind: VerifyDeadlock, apply: swapSendRecvCycle},
		{name: "mismatch-tag-size", kind: VerifyMatching, apply: mismatchTagOrSize},
		{name: "break-participation", kind: VerifyMatching, apply: breakParticipation},
		{name: "alias-overlap-buffer", kind: VerifyOverlap, apply: aliasOverlapBuffer},
	}
}

func TestVerifyMutations(t *testing.T) {
	const n = 96
	a := gen.ErdosRenyi(n, 5, 31).NormalizedAdjacency()
	applied := make(map[string]int)
	for _, p := range []int{4, 8, 16} {
		for _, spec := range EnumerateCandidates(p) {
			if spec.Skip != "" {
				continue
			}
			label := fmt.Sprintf("%s/p=%d", spec.Name, p)
			w := comm.NewWorld(p, machine.Perlmutter())
			e, err := NewEngine(w, spec.Name, spec.C, a, UniformLayout(n, p/spec.C))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			plan := e.Plan()
			if err := Verify(plan); err != nil {
				t.Fatalf("%s: unmutated plan rejected: %v", label, err)
			}
			if err := Verify(clonePlan(plan)); err != nil {
				t.Fatalf("%s: unmutated clone rejected (clone helper broken): %v", label, err)
			}
			for _, m := range verifyMutations() {
				mut := clonePlan(plan)
				if !m.apply(mut) {
					continue // hazard class needs instructions this engine does not emit
				}
				applied[m.name]++
				err := Verify(mut)
				if err == nil {
					t.Errorf("%s/%s: corrupted plan passed Verify", label, m.name)
					continue
				}
				var ve *VerifyError
				if !errors.As(err, &ve) {
					t.Errorf("%s/%s: rejection is not a *VerifyError: %v", label, m.name, err)
					continue
				}
				if ve.Kind != m.kind {
					t.Errorf("%s/%s: rejected as %s, want %s: %v", label, m.name, ve.Kind, m.kind, err)
				}
				if ve.Rank < 0 {
					t.Errorf("%s/%s: rejection not rank-attributed: %v", label, m.name, err)
				}
				if ve.Plan != mut.name {
					t.Errorf("%s/%s: rejection names plan %q", label, m.name, ve.Plan)
				}
			}
		}
	}
	// Every hazard class must have exercised Verify on exactly the plans whose
	// instruction mix offers it. The sweep compiles 14 plans: the 1D pair at
	// P ∈ {4, 8, 16} and the 1.5D pair at (P, c) ∈ {(4,2), (8,2), (16,2),
	// (16,4)}.
	want := map[string]int{
		"drop-recv":            4,  // p2p receives: sparsity-aware 1.5D, every (P, c)
		"send-recv-cycle":      2,  // a send then a recv with one peer needs ≥ 2 stages per rank: sa-1.5d at (8,2), (16,2)
		"mismatch-tag-size":    13, // all but oblivious-1.5d at (4,2), whose 2-member bcast groups have no other root to shift to
		"break-participation":  14, // every plan runs a collective
		"alias-overlap-buffer": 10, // all but the single-stage 1.5D plans at (4,2) and (16,4)
	}
	for _, m := range verifyMutations() {
		if applied[m.name] != want[m.name] {
			t.Errorf("mutation class %s applied to %d plans, want %d", m.name, applied[m.name], want[m.name])
		}
	}
}

// TestVerifyErrorText pins the rank/site attribution format of VerifyError.
func TestVerifyErrorText(t *testing.T) {
	e := &VerifyError{Plan: "sparsity-aware-1d", Kind: VerifyMatching, Rank: 3, Site: 7, Detail: "boom"}
	want := "distmm: verify sparsity-aware-1d: matching: rank 3 instr 7: boom"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
	g := &VerifyError{Plan: "x", Kind: VerifyStructure, Rank: -1, Site: -1, Detail: "global"}
	if got, want := g.Error(), "distmm: verify x: structure: global"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

// TestVerifySteadyStateAllocs proves Verify is compile-time only: running it
// against a compiled plan leaves the steady-state MultiplyInto collective on
// the same allocation budget the alloc-regression test pins — zero added
// allocations on the execute path.
func TestVerifySteadyStateAllocs(t *testing.T) {
	const n, f, p = 1024, 32, 8
	a := randomSym(7, n, 8)
	w := comm.NewWorld(p, machine.Perlmutter())
	e := NewSparsityAware1D(w, a, UniformLayout(n, p))
	if err := Verify(e.Plan()); err != nil {
		t.Fatalf("compiled plan fails Verify: %v", err)
	}
	lay := e.Layout()
	h := dense.NewRandom(rand.New(rand.NewSource(8)), n, f, 1.0)
	locals := make([]*dense.Matrix, p)
	outs := make([]*dense.Matrix, p)
	for rank := 0; rank < p; rank++ {
		lo, hi := lay.Range(rank)
		locals[rank] = h.SliceRows(lo, hi).Clone()
		outs[rank] = dense.New(hi-lo, f)
	}
	collective := func() {
		w.Run(func(r *comm.Rank) { e.MultiplyInto(r, locals[r.ID], outs[r.ID]) })
	}
	collective()         // size the workspaces
	const budget = 6 * p // the alloc_regression_test budget, unchanged by Verify
	if allocs := testing.AllocsPerRun(10, collective); allocs > budget {
		t.Fatalf("steady-state collective after Verify allocates %v times, budget %d", allocs, budget)
	}
}

// BenchmarkVerify measures the one-time compile cost of the static checker
// across a representative plan.
func BenchmarkVerify(b *testing.B) {
	const n, f, p = 1024, 32, 8
	a := randomSym(7, n, 8)
	w := comm.NewWorld(p, machine.Perlmutter())
	e, err := NewEngine(w, "sparsity-aware-1.5d", 2, a, UniformLayout(n, p/2))
	if err != nil {
		b.Fatal(err)
	}
	plan := e.Plan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(plan); err != nil {
			b.Fatal(err)
		}
	}
}
