package distmm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// randomFrontiers builds per-rank rectangular frontier blocks over an
// n-vertex space: each rank's block has a random row count (including the
// occasional empty rank, the exhausted-batch case) and rows that touch a few
// random global columns — the shape sampled mini-batches produce.
func randomFrontiers(rng *rand.Rand, p, n int) []*sparse.CSR {
	blocks := make([]*sparse.CSR, p)
	for i := 0; i < p; i++ {
		rows := rng.Intn(12)
		if i == 0 {
			rows = 0 // always exercise an empty frontier
		}
		var coords []sparse.Coord
		for r := 0; r < rows; r++ {
			deg := 1 + rng.Intn(5)
			for k := 0; k < deg; k++ {
				coords = append(coords, sparse.Coord{Row: r, Col: rng.Intn(n), Val: 1 + rng.Float64()})
			}
		}
		blocks[i] = sparse.NewCSR(rows, n, coords)
	}
	return blocks
}

// runSampledGather executes the gather collectively and returns each rank's
// output block.
func runSampledGather(w *comm.World, e *SampledGather, x *dense.Matrix, layout Layout) []*dense.Matrix {
	outs := make([]*dense.Matrix, w.P)
	w.Run(func(r *comm.Rank) {
		lo, hi := layout.Range(r.ID)
		out := dense.New(e.OutRows(r.ID), x.Cols)
		e.MultiplyInto(r, x.SliceRows(lo, hi).Clone(), out)
		outs[r.ID] = out
	})
	return outs
}

// TestSampledGatherMatchesReference pins the tentpole's numeric contract:
// the distributed rectangular gather is bit-identical to the serial
// reference, its plan passes static verification, and Plan.Volumes matches
// the executed ledger byte-exactly.
func TestSampledGatherMatchesReference(t *testing.T) {
	const n, f, p = 64, 6, 4
	rng := rand.New(rand.NewSource(7))
	layout := UniformLayout(n, p)
	x := dense.NewRandom(rand.New(rand.NewSource(5)), n, f, 1)
	for round := 0; round < 3; round++ {
		blocks := randomFrontiers(rng, p, n)
		want := SampledGatherReference(blocks, layout, x)
		w := comm.NewWorld(p, machine.Perlmutter())
		e := NewSampledGather(w, blocks, layout)
		if err := Verify(e.Plan()); err != nil {
			t.Fatalf("round %d: plan rejected: %v", round, err)
		}
		pred := e.Plan().Volumes(f)
		got := runSampledGather(w, e, x, layout)
		for rank := 0; rank < p; rank++ {
			if !got[rank].Equal(want[rank], 0) {
				t.Fatalf("round %d rank %d: gather differs from reference", round, rank)
			}
			if w.Stats().BytesSent(rank) != pred[rank].SentBytes ||
				w.Stats().BytesRecv(rank) != pred[rank].RecvBytes ||
				w.Stats().MsgsSent(rank) != pred[rank].MsgsSent {
				t.Fatalf("round %d rank %d: measured (%d,%d,%d) != predicted (%d,%d,%d)",
					round, rank,
					w.Stats().BytesSent(rank), w.Stats().BytesRecv(rank), w.Stats().MsgsSent(rank),
					pred[rank].SentBytes, pred[rank].RecvBytes, pred[rank].MsgsSent)
			}
		}
	}
}

// TestSampledGatherRecompile checks that swapping batches on a live gather
// (the steady-state path: one engine, per-batch Recompile, reused
// workspaces) produces the same results as a fresh engine per batch.
func TestSampledGatherRecompile(t *testing.T) {
	const n, f, p = 48, 5, 4
	rng := rand.New(rand.NewSource(11))
	layout := UniformLayout(n, p)
	x := dense.NewRandom(rand.New(rand.NewSource(3)), n, f, 1)
	w := comm.NewWorld(p, machine.Perlmutter())
	var e *SampledGather
	for round := 0; round < 4; round++ {
		blocks := randomFrontiers(rng, p, n)
		if e == nil {
			e = NewSampledGather(w, blocks, layout)
		} else {
			e.Recompile(blocks)
		}
		want := SampledGatherReference(blocks, layout, x)
		got := runSampledGather(w, e, x, layout)
		for rank := 0; rank < p; rank++ {
			if !got[rank].Equal(want[rank], 0) {
				t.Fatalf("round %d rank %d: recompiled gather differs from reference", round, rank)
			}
		}
	}
}

// TestSampledGatherResident pins the resident stores: rounds of random
// frontiers run through one gather, each round's plan executed in order,
// stay bit-identical to the reference; every round's ledger delta is its
// plan's Volumes; no row reaches a rank twice while the rank's store has
// room; and a rank whose frontiers name more remote rows than it owns stops
// keeping them at its own row count and ships the rest again, still exactly
// as predicted.
func TestSampledGatherResident(t *testing.T) {
	const n, f, p, rounds = 512, 5, 4, 6
	x := dense.NewRandom(rand.New(rand.NewSource(9)), n, f, 1)
	layouts := map[string]Layout{
		"uniform": UniformLayout(n, p),
		"skewed":  LayoutFromOffsets([]int{0, 200, 202, 350, n}), // rank 1 owns 2 rows
	}
	for name, layout := range layouts {
		rng := rand.New(rand.NewSource(21))
		w := comm.NewWorld(p, machine.Perlmutter())
		var e *SampledGather
		named := make([]map[int]bool, p) // distinct remote rows each rank's frontiers named
		shipped := make([]int, p)        // rows landed at each rank so far
		perRound := 0                    // remote rows named, summed over rounds and ranks
		for i := range named {
			named[i] = map[int]bool{}
		}
		for round := 0; round < rounds; round++ {
			blocks := randomFrontiers(rng, p, n)
			if e == nil {
				e = NewSampledGather(w, blocks, layout)
			} else {
				e.Recompile(blocks)
			}
			if err := Verify(e.Plan()); err != nil {
				t.Fatalf("%s round %d: plan rejected: %v", name, round, err)
			}
			pred := e.Plan().Volumes(f)
			before := make([]RankVolume, p)
			for rank := range before {
				before[rank] = RankVolume{w.Stats().BytesSent(rank), w.Stats().BytesRecv(rank), w.Stats().MsgsSent(rank)}
			}
			want := SampledGatherReference(blocks, layout, x)
			got := runSampledGather(w, e, x, layout)
			for rank := 0; rank < p; rank++ {
				if !got[rank].Equal(want[rank], 0) {
					t.Fatalf("%s round %d rank %d: gather differs from reference", name, round, rank)
				}
				delta := RankVolume{
					w.Stats().BytesSent(rank) - before[rank].SentBytes,
					w.Stats().BytesRecv(rank) - before[rank].RecvBytes,
					w.Stats().MsgsSent(rank) - before[rank].MsgsSent,
				}
				if delta != pred[rank] {
					t.Fatalf("%s round %d rank %d: measured %+v != predicted %+v", name, round, rank, delta, pred[rank])
				}
				shipped[rank] += int(pred[rank].RecvBytes / (f * machine.BytesPerElem))
				b := blocks[rank]
				lo, hi := layout.Range(rank)
				round := map[int]bool{}
				for _, c := range b.ColIdx[:b.RowPtr[b.NumRows]] {
					if c < lo || c >= hi {
						named[rank][c], round[c] = true, true
					}
				}
				perRound += len(round)
			}
		}
		capped := false
		for rank := 0; rank < p; rank++ {
			own := layout.Count(rank)
			if held := e.Plan().store[rank]; held != min(len(named[rank]), own) {
				t.Errorf("%s rank %d: store holds %d rows; %d distinct remote rows named, %d owned", name, rank, held, len(named[rank]), own)
			}
			if len(named[rank]) > own {
				capped = true
			} else if shipped[rank] > len(named[rank]) {
				t.Errorf("%s rank %d: %d rows shipped for %d distinct rows named", name, rank, shipped[rank], len(named[rank]))
			}
		}
		if capped != (name == "skewed") {
			t.Errorf("%s: a rank outgrew its store: %v", name, capped)
		}
		total := 0
		for _, n := range shipped {
			total += n
		}
		if total >= perRound {
			t.Errorf("%s: %d rows shipped for %d named round by round: no row was served from a store", name, total, perRound)
		}
	}
}

// TestSampledGatherRewind checks that Rewind returns the stores to a mark:
// after rewinding, a recompile of the same frontiers compiles the plan it
// compiled at that mark — same bytes per rank — and still executes to the
// reference.
func TestSampledGatherRewind(t *testing.T) {
	const n, f, p = 48, 4, 4
	layout := UniformLayout(n, p)
	x := dense.NewRandom(rand.New(rand.NewSource(13)), n, f, 1)
	rng := rand.New(rand.NewSource(17))
	batches := make([][]*sparse.CSR, 4)
	for i := range batches {
		batches[i] = randomFrontiers(rng, p, n)
	}
	w := comm.NewWorld(p, machine.Perlmutter())
	e := NewSampledGather(w, batches[0], layout)
	runSampledGather(w, e, x, layout)
	mark := e.Resident()
	var first [][]RankVolume
	for _, b := range batches[1:] {
		e.Recompile(b)
		first = append(first, e.Plan().Volumes(f))
		runSampledGather(w, e, x, layout)
	}
	e.Rewind(mark)
	for i, b := range batches[1:] {
		e.Recompile(b)
		if got := e.Plan().Volumes(f); !slices.Equal(got, first[i]) {
			t.Fatalf("batch %d after rewind: volumes %+v, first compile %+v", i+1, got, first[i])
		}
		want := SampledGatherReference(b, layout, x)
		for rank, out := range runSampledGather(w, e, x, layout) {
			if !out.Equal(want[rank], 0) {
				t.Fatalf("batch %d rank %d after rewind: gather differs from reference", i+1, rank)
			}
		}
	}
}

// TestSampledPlanSurvivesNextRecompile pins the compile arenas' lifetime:
// a plan Plan returns is valid until the second Recompile after it. Over
// frontiers alternately taller and shorter than the step before, step t's
// plan keeps its fingerprint (every field and instruction in recorded
// form), its slot fills and store heights, its volumes and its verdict
// across step t+1's compile, and runs to the reference's bits after it;
// step t+2 compiles into step t's arena, so the gather holds two plans'
// storage, not one a step.
func TestSampledPlanSurvivesNextRecompile(t *testing.T) {
	const n, p, f = 96, 4, 3
	layout := UniformLayout(n, p)
	w := comm.NewWorld(p, machine.Perlmutter())
	rng := rand.New(rand.NewSource(21))
	x := dense.NewRandom(rng, n, f, 1)
	frontiers := func(step int) []*sparse.CSR {
		blocks := make([]*sparse.CSR, p)
		for i := range blocks {
			rows := rng.Intn(8) + 24*(step%2)
			var coords []sparse.Coord
			for r := 0; r < rows; r++ {
				for k := rng.Intn(6); k >= 0; k-- {
					coords = append(coords, sparse.Coord{Row: r, Col: rng.Intn(n), Val: 1 + rng.Float64()})
				}
			}
			blocks[i] = sparse.NewCSR(rows, n, coords)
		}
		return blocks
	}
	snapshot := func(pl *Plan) (uint64, string) {
		fills := fmt.Sprint(pl.store)
		for _, prog := range pl.progs {
			fills += fmt.Sprint(prog[0].fills)
		}
		return planFingerprint(pl), fills
	}
	blocks := frontiers(0)
	g := NewSampledGather(w, blocks, layout)
	var older *Plan
	for step := 1; step <= 8; step++ {
		plan := g.Plan()
		fp, fills := snapshot(plan)
		vols := plan.Volumes(f)
		want := SampledGatherReference(blocks, layout, x)
		next := frontiers(step)
		g.Recompile(next)
		if gotFP, gotFills := snapshot(plan); gotFP != fp || gotFills != fills {
			t.Fatalf("step %d: the plan changed when step %d compiled", step-1, step)
		}
		if !slices.Equal(plan.Volumes(f), vols) {
			t.Fatalf("step %d: volumes changed when step %d compiled", step-1, step)
		}
		if err := Verify(plan); err != nil {
			t.Fatalf("step %d after step %d compiled: %v", step-1, step, err)
		}
		cur := g.Plan()
		g.plan = plan // run step t's plan once more, as a hosted rank still may
		for rank, out := range runSampledGather(w, g, x, layout) {
			if !slices.Equal(out.Data, want[rank].Data) {
				t.Fatalf("step %d rank %d: the plan ran to other bits after step %d compiled", step-1, rank, step)
			}
		}
		g.plan = cur
		if cur == plan || (older != nil && cur != older) {
			t.Fatalf("step %d compiled into a third arena", step)
		}
		older, blocks = plan, next
	}
}

// TestSampledGatherShapePanics pins the collective-call contract: wrong
// input or output heights and aliased buffers panic instead of corrupting a
// collective.
func TestSampledGatherShapePanics(t *testing.T) {
	const n, f, p = 32, 4, 4
	layout := UniformLayout(n, p)
	blocks := randomFrontiers(rand.New(rand.NewSource(2)), p, n)
	w := comm.NewWorld(p, machine.Perlmutter())
	e := NewSampledGather(w, blocks, layout)
	mustPanic := func(name string, fn func(r *comm.Rank)) {
		w.Run(func(r *comm.Rank) {
			if r.ID != 0 {
				return
			}
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn(r)
		})
	}
	mustPanic("short input", func(r *comm.Rank) {
		e.MultiplyInto(r, dense.New(1, f), dense.New(e.OutRows(0), f))
	})
	mustPanic("wrong output", func(r *comm.Rank) {
		e.MultiplyInto(r, dense.New(layout.Count(0), f), dense.New(e.OutRows(0)+1, f))
	})
}

// TestVerifyRejectsBrokenSampledPlan mutates a compiled sampled plan the
// ways a buggy batch compiler would and checks the static verifier catches
// each one — rectangular plans get the same lint coverage square ones have.
func TestVerifyRejectsBrokenSampledPlan(t *testing.T) {
	const n, f, p = 32, 4, 4
	layout := UniformLayout(n, p)
	w := comm.NewWorld(p, machine.Perlmutter())
	fresh := func() *Plan {
		return newSampledGatherPlan(w, randomFrontiers(rand.New(rand.NewSource(4)), p, n), layout, newResidentStores(layout), nil, new(compileArena))
	}

	if err := Verify(fresh()); err != nil {
		t.Fatalf("clean sampled plan rejected: %v", err)
	}

	bad := fresh()
	bad.inRows[1]++ // input height no longer matches the layout block
	if err := Verify(bad); err == nil {
		t.Fatal("verifier accepted a plan with a wrong input height")
	}

	bad = fresh()
	for _, in := range bad.progs[2] {
		if in.op == opAllToAllv {
			for j := range in.sendIdx {
				if len(in.sendIdx[j]) > 0 {
					in.sendIdx[j][0] = layout.Count(2) // out of the rank's block
				}
			}
		}
	}
	if err := Verify(bad); err == nil {
		t.Fatal("verifier accepted out-of-range pack indices")
	}

	// A second compile of the same frontiers reads most rows from the
	// stores the first one filled: its fill maps are what the last two
	// mutations corrupt.
	withFills := func(edit func(fl *slotFill, landed, store int)) *Plan {
		frontiers := randomFrontiers(rand.New(rand.NewSource(4)), p, n)
		rs := newResidentStores(layout)
		newSampledGatherPlan(w, frontiers, layout, rs, nil, new(compileArena))
		pl := newSampledGatherPlan(w, frontiers, layout, rs, nil, new(compileArena))
		for rank, prog := range pl.progs {
			exch := &prog[0]
			for j := range exch.fills {
				if fl := &exch.fills[j]; fl.fill != nil {
					edit(fl, exch.recvRows[j], pl.store[rank])
					return pl
				}
			}
		}
		t.Fatal("second compile of the same frontiers reads nothing from the stores")
		return nil
	}
	if err := Verify(withFills(func(*slotFill, int, int) {})); err != nil {
		t.Fatalf("clean plan with fill maps rejected: %v", err)
	}
	if err := Verify(withFills(func(fl *slotFill, _, store int) { fl.fill[0] = -1 - store })); err == nil {
		t.Fatal("verifier accepted a fill reference past the resident store")
	}
	if err := Verify(withFills(func(fl *slotFill, landed, _ int) { fl.fill[0] = landed })); err == nil {
		t.Fatal("verifier accepted a fill reference past the landed rows")
	}
}
