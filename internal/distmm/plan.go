package distmm

import (
	"fmt"
	"sync"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// This file is the communication-plan IR. At setup, each algorithm compiles
// its complete per-stage choreography — who sends which H-row indices to
// whom, over which collective (broadcast, all-to-allv, point-to-point,
// all-reduce), and which sparse block multiplies the staged rows — into an
// immutable Plan: one instruction stream per rank. One engine type,
// planEngine, runs every plan: the four full-batch engines (1D/1.5D ×
// oblivious/sparsity-aware) and the sampled gather share its data-movement
// code path, and it switches between the sequential executor here and the
// overlapped one (overlap.go).
//
// Because the schedule that executes is also a value, exact per-rank traffic
// (Plan.Volumes) and modeled α–β time (Plan.Cost, a machine.Snapshot of the
// same per-rank × per-phase table a run charges) can be computed by walking
// it without moving any data — the substrate for algorithm auto-selection
// and cost estimation.

// opcode enumerates the plan instruction set. Each opcode corresponds to one
// staging step of the original hand-wired protocols; the executor applies
// exactly the communication calls, SpMM accumulations, and machine-time
// charges the pre-IR engines performed, in the same per-rank order, so plan
// execution is bit-identical to them.
type opcode uint8

const (
	// opBcastMul broadcasts a full H block over instr.group from group index
	// instr.root (payload = hLocal when instr.own) and multiplies instr.blk
	// against the staged rows into the accumulator. Sparsity-oblivious
	// engines are sequences of this op.
	opBcastMul opcode = iota
	// opAllToAllv packs the requested H rows per peer (instr.sendIdx),
	// charges the pack time, and runs one personalized exchange landing
	// instr.recvRows[j] rows from each peer j. The sparsity-aware 1D
	// exchange.
	opAllToAllv
	// opMulOwn multiplies instr.blk (a full-width diagonal block) against
	// hLocal into the accumulator.
	opMulOwn
	// opMulRecvSlot multiplies instr.blk (a compact relabeled block) against
	// the rows landed in all-to-allv slot instr.slot.
	opMulRecvSlot
	// opChargeUnpack charges the device-copy time of every row consumed by
	// opMulRecvSlot since the last charge.
	opChargeUnpack
	// opSendRows gathers instr.idx rows of hLocal into a pooled buffer and
	// hands it zero-copy to world rank instr.peer (tag instr.tag). An empty
	// index list still sends the (empty) stage message.
	opSendRows
	// opChargePack charges the device-copy time of every row packed by
	// opSendRows since the last charge.
	opChargePack
	// opRecvMul receives the stage message from world rank instr.peer into
	// the staging buffer and, when rows arrived, multiplies instr.blk
	// against them.
	opRecvMul
	// opAllReduce sums the per-rank partial accumulators over instr.group
	// into the output block (the 1.5D partial-sum reduction).
	opAllReduce
)

// instr is one plan instruction. Fields are operands; which are meaningful
// depends on op (see the opcode docs).
type instr struct {
	op       opcode
	group    *comm.Group // opBcastMul, opAllToAllv, opAllReduce
	root     int         // opBcastMul: root's group index
	own      bool        // opBcastMul: this rank is the root
	peer     int         // opSendRows dst / opRecvMul src (world rank)
	tag      int         // opSendRows / opRecvMul stage tag
	rows     int         // staged H rows (opBcastMul, opMulRecvSlot, opRecvMul)
	slot     int         // opAllToAllv: own group index; opMulRecvSlot: landing slot
	idx      []int       // opSendRows: hLocal rows to gather
	blk      *sparse.CSR // SpMM operand
	sendIdx  [][]int     // opAllToAllv: per-peer hLocal rows to gather (nil = none)
	recvRows []int       // opAllToAllv: per-peer landing row counts
}

// Plan is one algorithm's compiled communication schedule over a fixed
// sparse matrix and process layout: an immutable per-rank instruction
// stream plus the layout metadata the executor and the cost model share.
// Plans are safe for concurrent execution by their world's ranks.
type Plan struct {
	name        string
	world       *comm.World
	layout      Layout
	replication int
	// partial: ranks accumulate into a private partial-sum buffer that a
	// trailing opAllReduce folds into the output (the 1.5D schedule shape).
	partial bool
	// blockOf / outRows / gradGroups are per-world-rank layout metadata.
	blockOf    []int
	outRows    []int
	gradGroups []*comm.Group
	// inRows, when non-nil, pins each rank's dense input (hLocal) height
	// separately from its accumulator height — the rectangular-plan shape
	// sampled mini-batch gathers compile to, where a rank owns layout-many
	// feature rows but accumulates only its batch frontier. nil means the
	// plan is square: input height equals outRows (the full-batch engines).
	inRows []int
	progs  [][]instr
	// pipes caches the per-rank pipelined stage decomposition (overlap.go),
	// derived once from the immutable progs on first overlapped execution or
	// overlap cost prediction.
	pipeOnce sync.Once
	pipes    []pipelineProg
}

// Name returns the algorithm name the plan was compiled from.
func (p *Plan) Name() string { return p.name }

// Replication returns the 1.5D replication factor c (1 for 1D).
func (p *Plan) Replication() int { return p.replication }

// Ranks returns the world size the plan is compiled for.
func (p *Plan) Ranks() int { return len(p.progs) }

// inRowsOf resolves rank's dense input height: pinned for rectangular
// plans, the accumulator height otherwise.
func (p *Plan) inRowsOf(rank int) int {
	if p.inRows == nil {
		return p.outRows[rank]
	}
	return p.inRows[rank]
}

// a2aStats computes one all-to-allv instruction's exchange shape at dense
// width w — packed elements, bytes sent and received, and communicating
// partners — in the exact aggregation order the executor's accounting uses.
// Volume prediction and both cost models share it, so the three can never
// drift on the partner/pack arithmetic.
func a2aStats(in *instr, w int) (packElems, sendBytes, recvBytes int64, partners int) {
	for j := range in.sendIdx {
		packElems += int64(len(in.sendIdx[j]) * w)
		if j == in.slot {
			continue
		}
		s := int64(len(in.sendIdx[j])*w) * machine.BytesPerElem
		rv := int64(in.recvRows[j]*w) * machine.BytesPerElem
		sendBytes += s
		recvBytes += rv
		if s > 0 || rv > 0 {
			partners++
		}
	}
	return packElems, sendBytes, recvBytes, partners
}

// RankVolume is one rank's exact predicted traffic for a single execution of
// the plan at dense width w: the numbers comm.Stats would measure.
type RankVolume struct {
	SentBytes int64
	RecvBytes int64
	MsgsSent  int64
}

// Volumes walks the schedule and returns, per rank, the exact send/receive
// bytes and message counts one execution at dense width w produces — equal,
// by construction, to what comm.Stats measures when the plan runs (pinned by
// TestPlanVolumesMatchMeasured). No data moves.
func (p *Plan) Volumes(w int) []RankVolume {
	vols := make([]RankVolume, len(p.progs))
	for rank, prog := range p.progs {
		v := &vols[rank]
		for i := range prog {
			in := &prog[i]
			switch in.op {
			case opBcastMul:
				nb := int64(in.rows*w) * machine.BytesPerElem
				if in.own {
					v.SentBytes += nb
					v.MsgsSent++
				} else {
					v.RecvBytes += nb
				}
			case opAllToAllv:
				_, sendB, recvB, partners := a2aStats(in, w)
				v.SentBytes += sendB
				v.RecvBytes += recvB
				v.MsgsSent += int64(partners)
			case opSendRows:
				v.SentBytes += int64(len(in.idx)*w) * machine.BytesPerElem
				v.MsgsSent++
			case opRecvMul:
				v.RecvBytes += int64(in.rows*w) * machine.BytesPerElem
			case opAllReduce:
				if g := in.group.Size(); g > 1 {
					nb := int64(p.outRows[rank]*w) * machine.BytesPerElem
					v.SentBytes += nb
					v.RecvBytes += nb
					v.MsgsSent += int64(g - 1)
				}
			}
		}
	}
	return vols
}

// Cost walks the schedule and returns the modeled α–β plus compute time of
// one execution at dense width w: it charges a fresh ledger exactly what the
// sequential executor charges the world's, so a plan's predicted snapshot
// equals the ledger delta of actually running it, without moving any data.
func (p *Plan) Cost(params machine.Params, w int) *machine.Snapshot {
	l := machine.NewLedger(len(p.progs))
	for rank, prog := range p.progs {
		var packed, unpacked int64
		for i := range prog {
			in := &prog[i]
			switch in.op {
			case opBcastMul:
				nb := int64(in.rows*w) * machine.BytesPerElem
				l.Add(rank, "bcast", params.BcastTime(nb, in.group.Size()))
				l.Add(rank, "local", params.SpMMTime(in.blk.Flops(w)))
			case opAllToAllv:
				packElems, sendB, recvB, partners := a2aStats(in, w)
				l.Add(rank, "local", params.CopyTime(packElems*machine.BytesPerElem))
				l.Add(rank, "alltoall", params.AllToAllvTime(sendB, recvB, partners))
			case opMulOwn:
				l.Add(rank, "local", params.SpMMTime(in.blk.Flops(w)))
			case opMulRecvSlot:
				l.Add(rank, "local", params.SpMMTime(in.blk.Flops(w)))
				unpacked += int64(in.rows * w)
			case opChargeUnpack:
				l.Add(rank, "local", params.CopyTime(unpacked*machine.BytesPerElem))
				unpacked = 0
			case opSendRows:
				nb := int64(len(in.idx)*w) * machine.BytesPerElem
				l.Add(rank, "alltoall", params.P2PTime(nb))
				packed += int64(len(in.idx) * w)
			case opChargePack:
				l.Add(rank, "local", params.CopyTime(packed*machine.BytesPerElem))
				packed = 0
			case opRecvMul:
				if in.rows > 0 {
					l.Add(rank, "local", params.SpMMTime(in.blk.Flops(w)))
				}
			case opAllReduce:
				nb := int64(p.outRows[rank]*w) * machine.BytesPerElem
				l.Add(rank, "allreduce", params.AllReduceTime(nb, in.group.Size()))
			}
		}
	}
	return l.Snapshot()
}

// EpochCost sums the plan's sequential-executor cost over the dense widths
// of an epoch's multiplies (EpochCostWith under ExecSequential).
func (p *Plan) EpochCost(params machine.Params, widths []int) *machine.Snapshot {
	return p.EpochCostWith(params, widths, ExecSequential)
}

// EpochSentBytes sums the plan's predicted per-rank send bytes over the
// dense widths of an epoch's multiplies.
func (p *Plan) EpochSentBytes(widths []int) []int64 {
	per := make([]int64, p.Ranks())
	for _, w := range widths {
		for i, v := range p.Volumes(w) {
			per[i] += v.SentBytes
		}
	}
	return per
}

// SentSummaryMB reduces per-rank sent bytes to (max, avg) megabytes — the
// shape volume tables report.
func SentSummaryMB(per []int64) (maxMB, avgMB float64) {
	var total, maxSent int64
	for _, b := range per {
		total += b
		if b > maxSent {
			maxSent = b
		}
	}
	const mb = 1e6
	return float64(maxSent) / mb, float64(total) / float64(len(per)) / mb
}

// NewEngine compiles the named engine ("oblivious-1d",
// "sparsity-aware-1d", "oblivious-1.5d", "sparsity-aware-1.5d") with
// replication factor c — the constructor the candidate sweep drives from
// CandidateSpec.Name.
func NewEngine(w *comm.World, name string, c int, aT *sparse.CSR, layout Layout) (Engine, error) {
	switch name {
	case "oblivious-1d":
		return NewOblivious1D(w, aT, layout), nil
	case "sparsity-aware-1d":
		return NewSparsityAware1D(w, aT, layout), nil
	case "oblivious-1.5d":
		return NewOblivious15D(w, aT, c, layout), nil
	case "sparsity-aware-1.5d":
		return NewSparsityAware15D(w, aT, c, layout), nil
	}
	return nil, fmt.Errorf("distmm: unknown engine %q", name)
}

// CandidateSpec names one (algorithm, replication) configuration of the
// algorithm-candidate sweep behind auto-selection and cost estimation.
type CandidateSpec struct {
	// Name is the engine name the spec compiles to ("oblivious-1d", ...).
	Name string
	// C is the 1.5D replication factor (1 for 1D).
	C int
	// Skip is non-empty when p's factorization forbids the configuration.
	Skip string
}

// EnumerateCandidates lists, in deterministic order, every algorithm
// candidate at world size p: the 1D pair, then the 1.5D pairs over
// c ∈ {2, 4}, with Skip set where p forbids the grid. Keeping the
// enumeration here — next to the grid validation rules it mirrors — gives
// AlgorithmAuto and Cluster.Estimate one sweep to agree on.
func EnumerateCandidates(p int) []CandidateSpec {
	specs := []CandidateSpec{{Name: "oblivious-1d", C: 1}, {Name: "sparsity-aware-1d", C: 1}}
	for _, c := range []int{2, 4} {
		skip := ""
		switch {
		case p%c != 0:
			skip = fmt.Sprintf("replication factor %d does not divide P=%d", c, p)
		case (p/c)%c != 0:
			skip = fmt.Sprintf("1.5D needs c² | P; got P=%d c=%d", p, c)
		}
		specs = append(specs,
			CandidateSpec{Name: "oblivious-1.5d", C: c, Skip: skip},
			CandidateSpec{Name: "sparsity-aware-1.5d", C: c, Skip: skip})
	}
	return specs
}

// execWS is one rank's reusable execution workspace: the staging buffer for
// incoming rows, the partial-sum block, the per-peer all-to-allv pack and
// landing buffers, and persistent matrix headers. After the first execution
// has sized the buffers, steady-state executions do not allocate.
type execWS struct {
	recv     []float64
	zhat     []float64
	send     [][]float64 // send[j] points into sendBufs[j] (or nil)
	sendBufs [][]float64
	recvPtr  [][]float64 // recvPtr[j] points into recvBufs[j]
	recvBufs [][]float64
	hj, zh   dense.Matrix

	// Overlapped-execution state (overlap.go): the background comm worker
	// and the stage-parity double buffers it lands transfers into, kept
	// separate from the sequential buffers above so a transfer in flight for
	// stage s+1 can never touch rows stage s is still multiplying.
	async        *comm.Async
	pipeRecv     [2][]float64
	pipeSend     [2][][]float64
	pipeSendBufs [2][][]float64
	pipeRecvPtr  [2][][]float64
	pipeRecvBufs [2][][]float64
}

// newExecWS builds the per-rank workspaces for a plan, pre-sizing the
// per-peer slices when the schedule contains an all-to-allv.
func newExecWS(p *Plan) []*execWS {
	a2a := 0
	for _, prog := range p.progs {
		for i := range prog {
			if prog[i].op == opAllToAllv && prog[i].group.Size() > a2a {
				a2a = prog[i].group.Size()
			}
		}
	}
	ws := make([]*execWS, len(p.progs))
	for i := range ws {
		w := &execWS{}
		if a2a > 0 {
			w.send = make([][]float64, a2a)
			w.sendBufs = make([][]float64, a2a)
			w.recvPtr = make([][]float64, a2a)
			w.recvBufs = make([][]float64, a2a)
			for par := 0; par < 2; par++ {
				w.pipeSend[par] = make([][]float64, a2a)
				w.pipeSendBufs[par] = make([][]float64, a2a)
				w.pipeRecvPtr[par] = make([][]float64, a2a)
				w.pipeRecvBufs[par] = make([][]float64, a2a)
			}
		}
		ws[i] = w
	}
	return ws
}

// execute runs rank r's instruction stream: hLocal in, out written. The
// caller validates shapes; execute assumes them.
func (p *Plan) execute(r *comm.Rank, hLocal, out *dense.Matrix, ws *execWS) {
	f := hLocal.Cols
	params := p.world.Params
	acc := out
	if p.partial {
		acc = asMatrix(&ws.zh, out.Rows, f, growFloats(&ws.zhat, out.Rows*f))
	}
	acc.Zero()
	var packed, unpacked int64
	prog := p.progs[r.ID]
	for i := range prog {
		in := &prog[i]
		switch in.op {
		case opBcastMul:
			var payload []float64
			if in.own {
				payload = hLocal.Data
			}
			data := in.group.BcastFloatsInto(r, in.root, payload, growFloats(&ws.recv, in.rows*f), "bcast")
			in.blk.SpMMAddInto(acc, asMatrix(&ws.hj, in.rows, f, data))
			r.ChargeCompute("local", params.SpMMTime(in.blk.Flops(f)))
		case opAllToAllv:
			var packElems int64
			for j, idx := range in.sendIdx {
				ws.send[j] = nil
				if len(idx) == 0 {
					continue
				}
				buf := growFloats(&ws.sendBufs[j], len(idx)*f)
				hLocal.GatherRowsInto(buf, idx)
				ws.send[j] = buf
				packElems += int64(len(buf))
			}
			// Packing the requested rows is the extra local work
			// sparsity-aware communication introduces (the larger "local"
			// bars of the paper's Figure 4 breakdown).
			r.ChargeCompute("local", params.CopyTime(packElems*machine.BytesPerElem))
			for j, rows := range in.recvRows {
				ws.recvPtr[j] = growFloats(&ws.recvBufs[j], rows*f)
			}
			in.group.AllToAllvInto(r, ws.send, ws.recvPtr, "alltoall")
		case opMulOwn:
			in.blk.SpMMAddInto(acc, hLocal)
			r.ChargeCompute("local", params.SpMMTime(in.blk.Flops(f)))
		case opMulRecvSlot:
			in.blk.SpMMAddInto(acc, asMatrix(&ws.hj, in.rows, f, ws.recvPtr[in.slot]))
			unpacked += int64(in.rows * f)
			r.ChargeCompute("local", params.SpMMTime(in.blk.Flops(f)))
		case opChargeUnpack:
			r.ChargeCompute("local", params.CopyTime(unpacked*machine.BytesPerElem))
			unpacked = 0
		case opSendRows:
			if len(in.idx) == 0 {
				r.SendOwned(in.peer, in.tag, nil, "alltoall")
				continue
			}
			buf := r.GetFloats(len(in.idx) * f)
			hLocal.GatherRowsInto(buf, in.idx)
			packed += int64(len(buf))
			r.SendOwned(in.peer, in.tag, buf, "alltoall")
		case opChargePack:
			r.ChargeCompute("local", params.CopyTime(packed*machine.BytesPerElem))
			packed = 0
		case opRecvMul:
			data := growFloats(&ws.recv, in.rows*f)
			r.RecvInto(in.peer, in.tag, data)
			if in.rows > 0 {
				in.blk.SpMMAddInto(acc, asMatrix(&ws.hj, in.rows, f, data))
				r.ChargeCompute("local", params.SpMMTime(in.blk.Flops(f)))
			}
		case opAllReduce:
			in.group.AllReduceSumInto(r, acc.Data, out.Data, "allreduce")
		}
	}
}

// planEngine is the one engine type: a Plan, per-rank workspaces and the
// executor selection. The full-batch constructors compile an algorithm into
// a Plan and wrap it here; SampledGather embeds it and swaps plans per batch.
type planEngine struct {
	plan *Plan
	ws   []*execWS
	mode ExecMode
}

func newPlanEngine(p *Plan) *planEngine {
	engineBuilds.Add(1)
	return &planEngine{plan: p, ws: newExecWS(p)}
}

// Name implements Engine.
func (e *planEngine) Name() string { return e.plan.name }

// Layout implements Engine.
func (e *planEngine) Layout() Layout { return e.plan.layout }

// BlockOf implements Engine.
func (e *planEngine) BlockOf(rank int) int { return e.plan.blockOf[rank] }

// GradGroup implements Engine.
func (e *planEngine) GradGroup(rank int) *comm.Group { return e.plan.gradGroups[rank] }

// Plan implements Engine: the compiled schedule backing this engine.
func (e *planEngine) Plan() *Plan { return e.plan }

// SetExecMode implements Engine. Must not be called concurrently with
// MultiplyInto.
func (e *planEngine) SetExecMode(m ExecMode) { e.mode = m }

// MultiplyInto implements Engine: one pass of the executor the engine's
// ExecMode selects (all ranks share the engine, so all ranks of a collective
// necessarily run the same mode). CostWith prices the same choice.
func (e *planEngine) MultiplyInto(r *comm.Rank, hLocal, out *dense.Matrix) {
	checkMultiplyShapes(r.ID, e.plan.inRowsOf(r.ID), e.plan.outRows[r.ID], hLocal, out)
	if e.mode == ExecOverlap {
		e.plan.executeOverlap(r, hLocal, out, e.ws[r.ID])
		return
	}
	e.plan.execute(r, hLocal, out, e.ws[r.ID])
}
