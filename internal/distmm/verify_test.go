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
	"sagnn/internal/sparse"
)

// This file is the Verify mutation suite: for every engine × P it clones the
// compiled plan, corrupts it one hazard class at a time — dropped receive,
// send/recv wait cycle, tag/size mismatch, broken group participation —
// and asserts the static checker rejects each with a typed,
// rank-attributed *VerifyError while the unmutated clone passes.
// The clones corrupt exactly the state a buggy compiler or a future plan
// transformation could produce; the executor never runs them.

// clonePlan deep-copies the instruction streams (instr values are copied;
// operand slices are shared and must be replaced, never mutated, by
// mutations).
func clonePlan(p *Plan) *Plan {
	q := &Plan{
		name:        p.name,
		world:       p.world,
		layout:      p.layout,
		replication: p.replication,
		partial:     p.partial,
		blockOf:     append([]int(nil), p.blockOf...),
		outRows:     append([]int(nil), p.outRows...),
		inRows:      append([]int(nil), p.inRows...),
		store:       append([]int(nil), p.store...),
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

func verifyMutations() []planMutation {
	return []planMutation{
		{name: "drop-recv", kind: VerifyMatching, apply: dropRecv},
		{name: "send-recv-cycle", kind: VerifyDeadlock, apply: swapSendRecvCycle},
		{name: "mismatch-tag-size", kind: VerifyMatching, apply: mismatchTagOrSize},
		{name: "break-participation", kind: VerifyMatching, apply: breakParticipation},
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
		"drop-recv":           4,  // p2p receives: sparsity-aware 1.5D, every (P, c)
		"send-recv-cycle":     2,  // a send then a recv with one peer needs ≥ 2 stages per rank: sa-1.5d at (8,2), (16,2)
		"mismatch-tag-size":   13, // all but oblivious-1.5d at (4,2), whose 2-member bcast groups have no other root to shift to
		"break-participation": 14, // every plan runs a collective
	}
	for _, m := range verifyMutations() {
		if applied[m.name] != want[m.name] {
			t.Errorf("mutation class %s applied to %d plans, want %d", m.name, applied[m.name], want[m.name])
		}
	}
}

// withHalo gives the first exchange edit applies to a private copy of its
// merged operand for edit to corrupt, and reports whether one did.
func withHalo(p *Plan, edit func(h *sparse.CSR, at []int) bool) bool {
	for rank, prog := range p.progs {
		for site := range prog {
			in := &prog[site]
			if in.op != opAllToAllv || in.halo == nil {
				continue
			}
			h := in.halo.Clone()
			if edit(h, in.at) {
				p.progs[rank][site].halo = h
				return true
			}
		}
	}
	return false
}

// sweepMutations corrupt a local sweep one way each: an entry of the
// merged operand moved to the next row, an entry moved out of its slot's
// halo rows, two swept slots multiplied in the other order (their segments
// now disagree with the merged rows that hold both), and a fill map on a
// slot whose landing fills its halo rows in place.
func sweepMutations() []planMutation {
	return []planMutation{
		{name: "entry-row", kind: VerifyLayout, apply: func(p *Plan) bool {
			return withHalo(p, func(h *sparse.CSR, _ []int) bool {
				for r := 0; r+1 < h.NumRows; r++ {
					if h.RowNNZ(r) > 0 {
						h.RowPtr[r+1]--
						return true
					}
				}
				return false
			})
		}},
		{name: "entry-column", kind: VerifyLayout, apply: func(p *Plan) bool {
			return withHalo(p, func(h *sparse.CSR, at []int) bool {
				for q, c := range h.ColIdx {
					for j := 0; j+1 < len(at); j++ {
						if lo, hi := at[j], at[j+1]; c >= lo && c < hi && hi < h.NumCols {
							h.ColIdx[q] = hi
							return true
						}
					}
				}
				return false
			})
		}},
		{name: "segment-order", kind: VerifyLayout, apply: func(p *Plan) bool {
			for rank, prog := range p.progs {
				for k := 1; k+1 < len(prog); k++ {
					a, b := &prog[k], &prog[k+1]
					if prog[k-1].op != opMulOwn && prog[k-1].op != opMulRecvSlot || a.op != opMulRecvSlot || b.op != opMulRecvSlot {
						continue
					}
					for r := 0; r < a.blk.NumRows; r++ {
						if a.blk.RowNNZ(r) > 0 && b.blk.RowNNZ(r) > 0 {
							p.progs[rank][k], p.progs[rank][k+1] = *b, *a
							return true
						}
					}
				}
			}
			return false
		}},
		{name: "fill-in-place", kind: VerifyLayout, apply: func(p *Plan) bool {
			for _, prog := range p.progs {
				for k := range prog {
					if in := &prog[k]; in.op == opMulRecvSlot && in.fill == nil && in.rows > 0 {
						in.fill = make([]int, in.rows)
						for i := range in.fill {
							in.fill[i] = i
						}
						return true
					}
				}
			}
			return false
		}},
	}
}

// TestVerifyRejectsBrokenSweep: Verify rejects a local sweep whose merged
// operand disagrees with the slots it replaces — in an entry's row, in an
// entry's column span, in the slots' order — or whose fill-mapped slot
// would be assembled over its own landing, each as a rank-attributed
// layout error, on every sparsity-aware 1D plan at P ∈ {4, 8, 16} and on a
// sampled gather whose stores an earlier batch filled.
func TestVerifyRejectsBrokenSweep(t *testing.T) {
	const n = 96
	a := gen.ErdosRenyi(n, 5, 31).NormalizedAdjacency()
	var plans []*Plan
	for _, p := range []int{4, 8, 16} {
		w := comm.NewWorld(p, machine.Perlmutter())
		plans = append(plans, NewSparsityAware1D(w, a, UniformLayout(n, p)).Plan())
	}
	w := comm.NewWorld(4, machine.Perlmutter())
	rng := rand.New(rand.NewSource(12))
	g := NewSampledGather(w, randomFrontiers(rng, 4, n), UniformLayout(n, 4))
	g.Recompile(randomFrontiers(rng, 4, n))
	plans = append(plans, g.Plan())
	applied := make(map[string]int)
	for _, plan := range plans {
		if err := Verify(clonePlan(plan)); err != nil {
			t.Fatalf("%s: unmutated clone rejected: %v", plan.name, err)
		}
		for _, m := range sweepMutations() {
			mut := clonePlan(plan)
			if !m.apply(mut) {
				continue
			}
			applied[m.name]++
			var ve *VerifyError
			if err := Verify(mut); !errors.As(err, &ve) || ve.Kind != m.kind || ve.Rank < 0 {
				t.Errorf("%s/%s: Verify returned %v, want a rank-attributed %s error", plan.name, m.name, err, m.kind)
			}
		}
	}
	for _, m := range sweepMutations() {
		if applied[m.name] != len(plans) {
			t.Errorf("mutation %s applied to %d of %d plans", m.name, applied[m.name], len(plans))
		}
	}
}

// FuzzVerifySound checks Verify against the executor itself. A compiled
// plan of every feasible engine at P ∈ {4, 8}, and a sampled gather compiled
// against stores an earlier batch filled, takes one single-rank edit —
// delete, duplicate or swap instructions, bump a tag, change a peer or a
// root, or repoint a fill entry. Verify must return nil or a *VerifyError,
// never panic; and whenever it accepts the edited plan, the executor must
// run it to completion on a sim world within the chaos timeout.
func FuzzVerifySound(f *testing.F) {
	const n, width = 48, 3
	a := gen.ErdosRenyi(n, 5, 31).NormalizedAdjacency()
	var plans []*Plan
	for _, p := range []int{4, 8} {
		w := comm.NewWorld(p, machine.Perlmutter())
		for _, spec := range EnumerateCandidates(p) {
			if spec.Skip != "" {
				continue
			}
			e, err := NewEngine(w, spec.Name, spec.C, a, UniformLayout(n, p/spec.C))
			if err != nil {
				f.Fatal(err)
			}
			plans = append(plans, e.Plan())
		}
		frontiers := randomFrontiers(rand.New(rand.NewSource(int64(p))), p, n)
		g := NewSampledGather(w, frontiers, UniformLayout(n, p))
		g.Recompile(frontiers)
		plans = append(plans, g.Plan())
	}
	const edits = 7
	for seed := 0; seed < edits*len(plans); seed++ { // every edit on every plan
		f.Add(uint8(seed), uint8(seed*3), uint8(seed/len(plans)), uint16(seed*5), uint16(seed*11+1))
	}
	f.Fuzz(func(t *testing.T, which, rank, edit uint8, i, j uint16) {
		mut := clonePlan(plans[int(which)%len(plans)])
		r := int(rank) % len(mut.progs)
		prog := mut.progs[r]
		if len(prog) == 0 {
			return
		}
		x, y := int(i)%len(prog), int(j)%len(prog)
		switch edit % edits {
		case 0:
			mut.progs[r] = append(append([]instr(nil), prog[:x]...), prog[x+1:]...)
		case 1:
			mut.progs[r] = append(append(append([]instr(nil), prog[:x+1]...), prog[x]), prog[x+1:]...)
		case 2:
			prog[x], prog[y] = prog[y], prog[x]
		case 3:
			prog[x].tag++
		case 4:
			prog[x].peer = int(j) % len(mut.progs)
		case 5:
			prog[x].root = int(j) % len(mut.progs)
		case 6:
			if fill := prog[x].fill; len(fill) > 0 {
				fill = append([]int(nil), fill...)
				fill[y%len(fill)] = int(j)%(2*len(fill)+3) - len(fill) - 1
				prog[x].fill = fill
			}
		}
		err := Verify(mut)
		if err != nil {
			var ve *VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("rejection is not a *VerifyError: %v", err)
			}
			return
		}
		e := newPlanEngine(mut)
		if err := mut.world.RunTimeout(chaosTimeout, func(rk *comm.Rank) error {
			e.MultiplyInto(rk, dense.New(mut.inRowsOf(rk.ID), width), dense.New(mut.outRows[rk.ID], width))
			return nil
		}); err != nil {
			t.Fatalf("%s: edit %d at rank %d accepted by Verify, but the executor fails: %v", mut.name, edit%edits, r, err)
		}
	})
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
// against a compiled plan leaves the steady-state MultiplyInto collective at
// the launch floor TestMultiplyIntoSteadyStateAllocs pins — zero added
// allocations on the execute path.
func TestVerifySteadyStateAllocs(t *testing.T) {
	const n, f, p = 256, 8, 8
	a := randomSym(7, n, 8)
	w := comm.NewWorld(p, machine.Perlmutter())
	e := NewSparsityAware1D(w, a, UniformLayout(n, p))
	if err := Verify(e.Plan()); err != nil {
		t.Fatalf("compiled plan fails Verify: %v", err)
	}
	h := dense.NewRandom(rand.New(rand.NewSource(8)), n, f, 1.0)
	if allocs, floor := multiplyAllocs(w, e, h); allocs > floor {
		t.Fatalf("steady-state collective after Verify allocates %v times, a bare launch %v", allocs, floor)
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
