package distmm

import (
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/machine"
)

// This file is the overlapped plan executor: a scheduler that walks the same
// immutable Plan as the sequential executor but issues the communication of
// stage s+1 on a background worker (comm.Async) while the SpMM of stage s
// runs, double-buffering the landing workspace so the in-flight transfer
// never touches rows still being consumed. It is the CAGNET-style
// broadcast/compute pipelining of Tripathy et al. applied to every engine at
// once, because after PR 3 all engines are Plans and overlap is purely an
// executor concern.
//
// Three invariants make the overlapped mode safe to select anywhere the
// sequential one runs:
//
//   - Bit-identical output. The compute operations execute on the rank's own
//     goroutine in exactly the sequential program order, joining (Async.Await)
//     on a stage's transfer before touching its rows, so every accumulation
//     happens in the same order on the same values.
//   - Identical traffic. The same comm calls move the same bytes; only the
//     calling goroutine changes. Plan.Volumes needs no mode parameter.
//   - Self-priced time. Inline comm charges are suppressed (phase "") and the
//     executor settles the modeled pipelined time — max(comm, comp) per
//     stage via machine.Pipeline — in one bulk charge after the collective,
//     emitting exactly the charges Plan.CostWith(ExecOverlap) predicts.

// ExecMode selects how an engine executes its compiled Plan.
type ExecMode uint8

const (
	// ExecSequential runs the plan stage by stage: every transfer completes
	// before the SpMM that consumes it starts. The PR 3 executor.
	ExecSequential ExecMode = iota
	// ExecOverlap pipelines the plan: stage s+1's communication is in flight
	// while stage s's SpMM runs, joined at the true data dependencies derived
	// from the plan's def/use structure. Outputs and volumes are bit-identical
	// to ExecSequential; only the modeled time accounting changes.
	ExecOverlap
)

// String names the mode for flags and tables.
func (m ExecMode) String() string {
	switch m {
	case ExecSequential:
		return "sequential"
	case ExecOverlap:
		return "overlap"
	}
	return fmt.Sprintf("ExecMode(%d)", uint8(m))
}

// pipeStage is one stage of the pipelined decomposition: the communication
// instructions that stage data (at most one blocking landing operation —
// broadcast, all-to-allv, or receive — plus any non-blocking sends), and the
// compute instructions that consume it. Both lists hold prog indices in
// program order.
type pipeStage struct {
	comm []int
	comp []int
}

// pipelineProg is one rank's dependency-analyzed instruction stream: the
// pipeline stages plus the epilogue (the trailing partial-sum all-reduce,
// which uses the full accumulator and therefore cannot overlap anything).
type pipelineProg struct {
	stages   []pipeStage
	epilogue []int
}

// landingOp reports whether op defines staged data a later compute reads —
// the defs the double-buffered workspace must isolate by stage parity.
func landingOp(op opcode) bool {
	return op == opBcastMul || op == opRecvMul || op == opAllToAllv
}

// buildPipeline derives the stage decomposition of one rank's program from
// its def/use structure:
//
//   - A landing operation begins a new stage (each stage stages one
//     transfer's worth of data, the unit the double buffer isolates).
//   - Non-blocking sends and their pack accounting join the current stage's
//     communication; compute joins its compute.
//   - Leading opMulOwn compute — which reads only hLocal, available from
//     t=0 — is peeled ahead of its stage's communication into the previous
//     stage (or a fresh communication-free prologue stage), so the transfer
//     it does not depend on can hide behind it. Peeling moves work between
//     stages but never reorders compute: stage lists concatenate back to
//     program order, which is what keeps overlapped accumulation
//     bit-identical.
//   - The trailing all-reduce becomes the epilogue: it folds the finished
//     accumulator, so no compute remains to hide it behind.
func buildPipeline(prog []instr) pipelineProg {
	var pp pipelineProg
	var cur pipeStage
	landed := false
	flush := func() {
		if len(cur.comm) > 0 || len(cur.comp) > 0 {
			pp.stages = append(pp.stages, cur)
			cur = pipeStage{}
		}
		landed = false
	}
	for i := range prog {
		op := prog[i].op
		switch {
		case op == opAllReduce:
			pp.epilogue = append(pp.epilogue, i)
		case landingOp(op):
			if landed || len(cur.comp) > 0 {
				flush()
			}
			cur.comm = append(cur.comm, i)
			landed = true
			if op == opBcastMul || op == opRecvMul {
				cur.comp = append(cur.comp, i)
			}
		case op == opSendRows || op == opChargePack:
			if len(cur.comp) > 0 {
				flush()
			}
			cur.comm = append(cur.comm, i)
		default: // opMulOwn, opMulRecvSlot, opChargeUnpack
			cur.comp = append(cur.comp, i)
		}
	}
	flush()

	// Peel pass: hoist each stage's leading hLocal-only multiplies ahead of
	// its communication. Builds a fresh slice — inserting a prologue stage
	// shifts positions, so writing back into the scanned slice would corrupt
	// stages not yet read.
	out := make([]pipeStage, 0, len(pp.stages)+1)
	for _, st := range pp.stages {
		if len(st.comm) > 0 {
			var lead []int
			for len(st.comp) > 0 && prog[st.comp[0]].op == opMulOwn {
				lead = append(lead, st.comp[0])
				st.comp = st.comp[1:]
			}
			if len(lead) > 0 {
				if n := len(out); n > 0 {
					out[n-1].comp = append(out[n-1].comp, lead...)
				} else {
					out = append(out, pipeStage{comp: lead})
				}
			}
		}
		out = append(out, st)
	}
	pp.stages = out
	return pp
}

// pipelineFor returns rank's cached stage decomposition, building all ranks'
// on first use. Plans are otherwise immutable; the cache is derived state
// shared by the overlap executor and the overlap cost model.
func (p *Plan) pipelineFor(rank int) *pipelineProg {
	p.pipeOnce.Do(func() {
		pipes := make([]pipelineProg, len(p.progs))
		for r := range p.progs {
			pipes[r] = buildPipeline(p.progs[r])
		}
		p.pipes = pipes
	})
	return &p.pipes[rank]
}

// walkOverlap prices one rank's pipelined execution at dense width w,
// emitting the exact (phase, seconds) charges the overlapped executor
// settles with the ledger: each stage's wire time exposed only where the
// previous stage's compute cannot hide it, the full local compute, and the
// non-overlappable epilogue all-reduce. The overlapped executor and
// CostWith(ExecOverlap) both consume this walk, so predicted and executed
// charges are float-identical by construction.
//
// Pack/unpack copies stay in "local", exactly as the sequential cost model
// charges them — which is also where the overlapped executor performs them
// (row gathers run on the rank's own goroutine between the join and the
// stage compute; only the wire operation rides the background worker). A
// stage's commSec is therefore pure wire time, and every phase of the
// overlapped price is bounded by the same rank's sequential phase: "local"
// is identical, and each communication phase only loses the hidden portion.
// Overlap ≤ sequential then holds per rank and per phase — so also for the
// bulk-synchronous Total — not just on friendly graphs.
func (p *Plan) walkOverlap(rank, w int, params machine.Params, emit func(phase string, sec float64)) {
	prog := p.progs[rank]
	pp := p.pipelineFor(rank)
	var pl machine.Pipeline
	var packed, unpacked int64
	for _, st := range pp.stages {
		var commSec, compSec float64
		phase := ""
		for _, i := range st.comm {
			in := &prog[i]
			switch in.op {
			case opBcastMul:
				commSec += params.BcastTime(int64(in.rows*w)*machine.BytesPerElem, in.group.Size())
				phase = "bcast"
			case opAllToAllv:
				packElems, sendB, recvB, partners := a2aStats(in, w)
				compSec += params.CopyTime(packElems * machine.BytesPerElem)
				commSec += params.AllToAllvTime(sendB, recvB, partners)
				phase = "alltoall"
			case opSendRows:
				commSec += params.P2PTime(int64(len(in.idx)*w) * machine.BytesPerElem)
				packed += int64(len(in.idx) * w)
				phase = "alltoall"
			case opChargePack:
				compSec += params.CopyTime(packed * machine.BytesPerElem)
				packed = 0
			case opRecvMul:
				// Sender pays: the receive itself charges nothing, but the
				// stage still has a landing phase for symmetry.
				if phase == "" {
					phase = "alltoall"
				}
			}
		}
		for _, i := range st.comp {
			in := &prog[i]
			switch in.op {
			case opBcastMul, opMulOwn:
				compSec += params.SpMMTime(in.blk.Flops(w))
			case opMulRecvSlot:
				compSec += params.SpMMTime(in.blk.Flops(w))
				unpacked += int64(in.rows * w)
			case opChargeUnpack:
				compSec += params.CopyTime(unpacked * machine.BytesPerElem)
				unpacked = 0
			case opRecvMul:
				if in.rows > 0 {
					compSec += params.SpMMTime(in.blk.Flops(w))
				}
			}
		}
		pl.Stage(phase, commSec, compSec, emit)
	}
	for _, i := range pp.epilogue {
		in := &prog[i]
		nb := int64(p.outRows[rank]*w) * machine.BytesPerElem
		pl.Epilogue("allreduce", params.AllReduceTime(nb, in.group.Size()), emit)
	}
}

// CostWith is Cost under an execution mode: ExecOverlap prices the
// double-buffered pipeline (per-stage max(comm, comp), the
// exposed-communication model of machine.Pipeline); any other mode prices
// the bulk-synchronous schedule (every stage's communication fully on the
// critical path) — the same branch planEngine.MultiplyInto takes. Both
// apply exactly the charges the corresponding executor applies, so either
// mode's predicted breakdown equals the ledger delta of running it.
func (p *Plan) CostWith(params machine.Params, f int, mode ExecMode) *machine.Snapshot {
	if mode != ExecOverlap {
		return p.Cost(params, f)
	}
	l := machine.NewLedger(len(p.progs))
	for rank := range p.progs {
		rank := rank
		p.walkOverlap(rank, f, params, func(ph string, sec float64) { l.Add(rank, ph, sec) })
	}
	return l.Snapshot()
}

// EpochCostWith sums CostWith over the dense widths of an epoch's
// multiplies, one snapshot per width.
func (p *Plan) EpochCostWith(params machine.Params, widths []int, mode ExecMode) *machine.Snapshot {
	var c *machine.Snapshot
	for _, w := range widths {
		c = c.Add(p.CostWith(params, w, mode))
	}
	return c
}

// startStageComm issues one stage's communication: non-blocking sends go out
// inline (they never block — the mailboxes buffer them, matching the eager
// Isend model), while the stage's single blocking landing operation is
// handed to the rank's background worker, landing into the parity half of
// the double buffer. Returns whether a worker operation is in flight (and
// must be awaited before the stage's compute). All charges are suppressed
// (phase ""): the executor settles modeled time in bulk afterwards.
func (p *Plan) startStageComm(r *comm.Rank, prog []instr, st *pipeStage, hLocal *dense.Matrix, ws *execWS, parity, f int) bool {
	async := false
	for _, i := range st.comm {
		in := &prog[i]
		switch in.op {
		case opBcastMul:
			var payload []float64
			if in.own {
				payload = hLocal.Data
			}
			dst := growFloats(&ws.pipeRecv[parity], in.rows*f)
			//lint:ignore commphase the executor settles this stage's charges in bulk after the pipeline drains
			ws.async.StartBcastFloatsInto(in.group, r, in.root, payload, dst, "")
			async = true
		case opAllToAllv:
			for j, idx := range in.sendIdx {
				ws.pipeSend[parity][j] = nil
				if len(idx) == 0 {
					continue
				}
				buf := growFloats(&ws.pipeSendBufs[parity][j], len(idx)*f)
				hLocal.GatherRowsInto(buf, idx)
				ws.pipeSend[parity][j] = buf
			}
			for j, rows := range in.recvRows {
				ws.pipeRecvPtr[parity][j] = growFloats(&ws.pipeRecvBufs[parity][j], rows*f)
			}
			//lint:ignore commphase the executor settles this stage's charges in bulk after the pipeline drains
			ws.async.StartAllToAllvInto(in.group, r, ws.pipeSend[parity], ws.pipeRecvPtr[parity], "")
			async = true
		case opRecvMul:
			dst := growFloats(&ws.pipeRecv[parity], in.rows*f)
			ws.async.StartRecvInto(r, in.peer, in.tag, dst)
			async = true
		case opSendRows:
			if len(in.idx) == 0 {
				//lint:ignore commphase the executor settles this stage's charges in bulk after the pipeline drains
				r.SendOwned(in.peer, in.tag, nil, "")
				continue
			}
			buf := r.GetFloats(len(in.idx) * f)
			hLocal.GatherRowsInto(buf, in.idx)
			//lint:ignore commphase the executor settles this stage's charges in bulk after the pipeline drains
			r.SendOwned(in.peer, in.tag, buf, "")
		case opChargePack:
			// Pricing-only in overlap mode: walkOverlap accounts the pack.
		}
	}
	return async
}

// runStageComp executes one stage's compute in program order against the
// parity half of the double buffer the stage's transfer landed in.
func (p *Plan) runStageComp(prog []instr, st *pipeStage, hLocal, acc *dense.Matrix, ws *execWS, parity, f int) {
	for _, i := range st.comp {
		in := &prog[i]
		switch in.op {
		case opBcastMul:
			in.blk.SpMMAddInto(acc, asMatrix(&ws.hj, in.rows, f, ws.pipeRecv[parity]))
		case opMulOwn:
			in.blk.SpMMAddInto(acc, hLocal)
		case opMulRecvSlot:
			in.blk.SpMMAddInto(acc, asMatrix(&ws.hj, in.rows, f, ws.pipeRecvPtr[parity][in.slot]))
		case opRecvMul:
			if in.rows > 0 {
				in.blk.SpMMAddInto(acc, asMatrix(&ws.hj, in.rows, f, ws.pipeRecv[parity]))
			}
		case opChargeUnpack:
			// Pricing-only in overlap mode: walkOverlap accounts the unpack.
		}
	}
}

// executeOverlap runs rank r's instruction stream pipelined: the prologue
// issues stage 0's transfer, then each iteration joins stage s's transfer,
// issues stage s+1's into the other half of the double buffer, and computes
// stage s — so every transfer after the first rides behind an SpMM. The
// epilogue all-reduce and the bulk ledger settlement follow. The caller
// validates shapes; executeOverlap assumes them.
func (p *Plan) executeOverlap(r *comm.Rank, hLocal, out *dense.Matrix, ws *execWS) {
	f := hLocal.Cols
	acc := out
	if p.partial {
		acc = asMatrix(&ws.zh, out.Rows, f, growFloats(&ws.zhat, out.Rows*f))
	}
	acc.Zero()
	if ws.async == nil {
		ws.async = comm.NewAsync()
	}
	// Abort safety: if this rank unwinds mid-pipeline (an injected fault, a
	// world abort, a compute panic) the background worker may still be inside
	// a collective. Record the failure first — a fresh panic must abort the
	// world, or the worker's blocked operation would never complete — then
	// drain the worker so the Async is idle and reusable for the retry.
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		if !comm.IsAbortPanic(e) {
			err, ok := e.(error)
			if !ok {
				err = fmt.Errorf("panic: %v", e)
			}
			r.World().Abort(&comm.RankError{Rank: r.ID, Err: err})
		}
		ws.async.Drain()
		panic(e)
	}()
	prog := p.progs[r.ID]
	pp := p.pipelineFor(r.ID)
	if n := len(pp.stages); n > 0 {
		pending := p.startStageComm(r, prog, &pp.stages[0], hLocal, ws, 0, f)
		for s := 0; s < n; s++ {
			if pending {
				ws.async.Await()
			}
			pending = false
			if s+1 < n {
				pending = p.startStageComm(r, prog, &pp.stages[s+1], hLocal, ws, (s+1)%2, f)
			}
			p.runStageComp(prog, &pp.stages[s], hLocal, acc, ws, s%2, f)
		}
	}
	for _, i := range pp.epilogue {
		//lint:ignore commphase the epilogue allreduce is charged by the settlement pass below
		prog[i].group.AllReduceSumInto(r, acc.Data, out.Data, "")
	}
	// Settle the modeled pipelined time in one deterministic pass — the same
	// emission CostWith(ExecOverlap) performs, so prediction and execution
	// agree float-exactly.
	// Fault-priced time: the self-priced settlement scales exposed
	// communication by the rank's degradation factor, mirroring what the
	// sequential executor's inline charges do. Healthy ranks (factor 1) keep
	// the float-identical CostWith(ExecOverlap) emission.
	factor := r.CommFactor()
	p.walkOverlap(r.ID, f, p.world.Params, func(phase string, sec float64) {
		if factor != 1 && phase != "local" {
			sec *= factor
		}
		r.ChargeCompute(phase, sec)
	})
}
