package distmm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// This file is the Verify mutation suite: for every engine × P it clones the
// compiled plan, corrupts it one hazard class at a time — a shape or root
// mismatch, broken group participation, a cycle of collectives entered in
// different orders — and asserts the static checker rejects each with a
// typed, rank-attributed *VerifyError while the unmutated clone passes.
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

// mismatchSizeOrRoot corrupts one wire signature: a shrunken all-to-allv
// pack list or a shifted broadcast root — whichever the instruction mix
// offers first. Both leave the per-rank structure locally valid, so only
// cross-rank matching can catch them.
func mismatchSizeOrRoot(p *Plan) bool {
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
// group: drop a non-root broadcast entry or an all-to-allv (its slots go
// with it, and the sweep after it multiplies the diagonal block alone, so
// the per-rank structure stays valid), or duplicate an all-reduce.
func breakParticipation(p *Plan) bool {
	for rank, prog := range p.progs {
		for site := range prog {
			if in := &prog[site]; in.op == opBcastMul && !in.own || in.op == opAllToAllv {
				p.progs[rank] = append(append([]instr(nil), prog[:site]...), prog[site+1:]...)
				return true
			}
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

// collectiveOrderCycle makes every rank enter a world-group broadcast of an
// empty block first, except rank 0, which enters it after its first
// collective. Rank 0 then waits in that collective's group for members that
// wait in the world group for rank 0: a cycle no count check sees, since
// every member still enters every group equally often. It applies where
// rank 0's first collective is not over the world group (there the two
// entries would pair up instead) and no sweep follows an exchange (a sweep
// must be a rank's first multiply).
func collectiveOrderCycle(p *Plan) bool {
	world := p.world.WorldGroup()
	first := -1
	for rank, prog := range p.progs {
		for site, in := range prog {
			if in.op == opAllToAllv {
				return false
			}
			if rank == 0 && first < 0 && in.op != opMulOwn {
				first = site
			}
		}
	}
	if first < 0 || p.progs[0][first].group == world {
		return false
	}
	rows := p.inRowsOf(0)
	for rank, prog := range p.progs {
		out := p.outRows[rank]
		bcast := instr{op: opBcastMul, group: world, root: 0, own: rank == 0, rows: rows,
			blk: &sparse.CSR{NumRows: out, NumCols: rows, RowPtr: make([]int, out+1)}}
		at := 0
		if rank == 0 {
			at = first + 1
		}
		p.progs[rank] = slices.Insert(slices.Clone(prog), at, bcast)
	}
	return true
}

func verifyMutations() []planMutation {
	return []planMutation{
		{name: "mismatch-size-root", kind: VerifyMatching, apply: mismatchSizeOrRoot},
		{name: "break-participation", kind: VerifyMatching, apply: breakParticipation},
		{name: "collective-order-cycle", kind: VerifyDeadlock, apply: collectiveOrderCycle},
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
		"mismatch-size-root":     13, // all but oblivious-1.5d at (4,2), whose 2-member bcast groups have no other root to shift to
		"break-participation":    14, // every plan runs a collective
		"collective-order-cycle": 4,  // oblivious-1.5d, every (P, c): rank 0 first broadcasts in its process column
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

// sweepMutations corrupt Algorithm 1's program one way each: an entry of
// the merged operand moved out of its slot's halo rows (the slots' nonzero
// counts no longer match it), a fill map on a slot whose landing fills its
// halo rows in place, and a second sweep, which would overwrite the first
// one's products.
func sweepMutations() []planMutation {
	return []planMutation{
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
		{name: "fill-in-place", kind: VerifyLayout, apply: func(p *Plan) bool {
			for _, prog := range p.progs {
				for k := range prog {
					in := &prog[k]
					if in.op != opAllToAllv {
						continue
					}
					for j, landed := range in.recvRows {
						if landed == 0 || landed != in.at[j+1]-in.at[j] || in.fills != nil && in.fills[j].fill != nil {
							continue
						}
						fills := make([]slotFill, len(in.recvRows))
						copy(fills, in.fills)
						fills[j].fill = make([]int, landed)
						for i := range fills[j].fill {
							fills[j].fill[i] = i
						}
						in.fills = fills
						return true
					}
				}
			}
			return false
		}},
		{name: "second-sweep", kind: VerifyLayout, apply: func(p *Plan) bool {
			for rank, prog := range p.progs {
				for k := 1; k < len(prog); k++ {
					if prog[k-1].op == opAllToAllv && prog[k].op == opMulOwn {
						p.progs[rank] = append(append(append([]instr(nil), prog[:k+1]...), prog[k]), prog[k+1:]...)
						return true
					}
				}
			}
			return false
		}},
	}
}

// TestVerifyRejectsBrokenSweep: Verify rejects an exchange whose merged
// operand disagrees with its slots' nonzero counts in an entry's column
// span, or whose fill-mapped slot would be assembled over its own landing,
// and a sweep after an earlier multiply, each as a rank-attributed layout
// error, on every sparsity-aware 1D plan at P ∈ {4, 8, 16} and on a sampled
// gather whose stores an earlier batch filled.
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
// delete, duplicate or swap instructions, bump a staged row count or a
// landing count, change a slot or a root, or repoint an entry of an
// exchange's fill map. Verify must return nil or a *VerifyError, never
// panic; and whenever it accepts the edited plan, the executor must run it
// to completion on a sim world within the chaos timeout.
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
	const edits = 8
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
			prog[x].rows++
		case 4:
			prog[x].slot = int(j) % len(mut.progs)
		case 5:
			prog[x].root = int(j) % len(mut.progs)
		case 6:
			if fills := prog[x].fills; len(fills) > 0 {
				fills = append([]slotFill(nil), fills...)
				if fl := &fills[int(j)%len(fills)]; len(fl.fill) > 0 {
					fill := append([]int(nil), fl.fill...)
					fill[int(i)/len(prog)%len(fill)] = int(j)/len(fills)%(2*len(fill)+3) - len(fill) - 1
					fl.fill = fill
				}
				prog[x].fills = fills
			}
		case 7:
			if recv := prog[x].recvRows; len(recv) > 0 {
				recv = slices.Clone(recv)
				recv[int(j)%len(recv)]++
				prog[x].recvRows = recv
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
		ctx, cancel := context.WithTimeout(context.Background(), chaosTimeout)
		defer cancel()
		if err := mut.world.RunCtx(ctx, func(rk *comm.Rank) error {
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
