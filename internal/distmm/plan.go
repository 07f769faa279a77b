package distmm

import (
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// This file is the communication-plan IR. At setup, each algorithm compiles
// its complete per-stage choreography — who sends which H-row indices to
// whom, over which collective (broadcast, all-to-allv, all-reduce), and
// which sparse block multiplies the staged rows — into an immutable Plan:
// one instruction stream per rank. Every sparsity-aware plan is Algorithm 1
// over some group of ranks: two instructions per rank, the exchange and one
// local sweep over the rank's own and the received rows, which the 1.5D
// engine follows with its process-row all-reduce. One engine type,
// planEngine, runs every plan: the four full-batch engines (1D/1.5D ×
// oblivious/sparsity-aware) and the sampled gather share its data-movement
// code path and its one executor, Plan.execute.
//
// Because the schedule that executes is also a value, exact per-rank traffic
// (Plan.Volumes) and modeled α–β time (Plan.Cost, a machine.Snapshot of the
// same per-rank × per-phase table a run charges) can be computed by walking
// it without moving any data — the substrate for algorithm auto-selection
// and cost estimation.

// opcode enumerates the plan instruction set: a broadcast stage of the
// sparsity-oblivious engines, Algorithm 1's exchange and local sweep, and
// the 1.5D partial-sum reduction. The executor applies exactly the
// communication calls, SpMM products, and machine-time charges each one
// names, in program order, and Plan.Cost charges the same.
type opcode uint8

const (
	// opBcastMul broadcasts a full H block over instr.group from group index
	// instr.root (payload = hLocal when instr.own) and multiplies instr.blk
	// against the staged rows into the accumulator. Sparsity-oblivious
	// engines are sequences of this op.
	opBcastMul opcode = iota
	// opAllToAllv packs the requested H rows per peer (instr.sendIdx),
	// charges the pack time, and runs one personalized exchange over
	// instr.group landing instr.recvRows[j] rows from each member j into the
	// rank's halo: Algorithm 1's exchange, over the world for the 1D engine
	// and a sampled gather, over the rank's process column for the 1.5D
	// engine. Member j's slot is halo rows [at[j], at[j+1]); a landing that
	// fills its slot lands there in place, a shorter one, which a fill map
	// completes, lands in a buffer of its own.
	opAllToAllv
	// opMulOwn multiplies instr.blk (a full-width diagonal block, empty on a
	// 1.5D rank whose column's range holds no block column of its own)
	// against hLocal into the accumulator. After an exchange it is the local
	// sweep: it completes the fill-mapped slots in the halo and writes the
	// accumulator with, per row, the diagonal block's products and then the
	// exchange's merged operand's against the halo, and charges the
	// diagonal block, each non-empty slot's multiply in ascending peer order
	// and the unpack copy of every slot row.
	opMulOwn
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
	rows     int         // opBcastMul: staged H rows
	slot     int         // opAllToAllv: own group index
	blk      *sparse.CSR // SpMM operand
	sendIdx  [][]int     // opAllToAllv: per-peer hLocal rows to gather (nil = none)
	recvRows []int       // opAllToAllv: per-peer landing row counts
	// opAllToAllv's halo: at[j] is peer slot j's first halo row (len(at) =
	// group size + 1, at[len-1] the halo height); halo is the peers' blocks
	// merged side by side in slot order, halo rows as columns, the operand
	// the local sweep multiplies against the halo; nnz[j] counts its entries
	// in slot j's columns. fills, for a sampled step, completes each slot
	// from its landing and the rank's resident store (nil: every slot is
	// its landing).
	at    []int
	halo  *sparse.CSR
	nnz   []int
	fills []slotFill
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
	// store, when non-nil, is each rank's resident-store height once the plan
	// has run: the store rows its fill maps may read and its keeps may write.
	// Only sampled gathers keep a store (sampled.go).
	store []int
	progs [][]instr
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
// Volume prediction and the cost model share it, so the two can never
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
// executor charges the world's, so a plan's predicted snapshot
// equals the ledger delta of actually running it, without moving any data.
func (p *Plan) Cost(params machine.Params, w int) *machine.Snapshot {
	l := machine.NewLedger(len(p.progs))
	for rank, prog := range p.progs {
		var exch *instr // the last all-to-allv
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
				exch = in
			case opMulOwn:
				mulOwnCharges(in.blk, exch, params, w, func(sec float64) { l.Add(rank, "local", sec) })
			case opAllReduce:
				nb := int64(p.outRows[rank]*w) * machine.BytesPerElem
				l.Add(rank, "allreduce", params.AllReduceTime(nb, in.group.Size()))
			}
		}
	}
	return l.Snapshot()
}

// mulOwnCharges calls charge with each local-phase time an opMulOwn with
// diagonal block diag charges at width w, in the executor's order: the
// diagonal block's multiply and, when it sweeps after exchange exch, each
// non-empty slot's multiply in ascending peer order and then the unpack
// copy of every slot row.
func mulOwnCharges(diag *sparse.CSR, exch *instr, params machine.Params, w int, charge func(sec float64)) {
	charge(params.SpMMTime(diag.Flops(w)))
	if exch == nil {
		return
	}
	var unpacked int64
	for j, nnz := range exch.nnz {
		if rows := exch.at[j+1] - exch.at[j]; rows > 0 {
			charge(params.SpMMTime(2 * int64(nnz) * int64(w)))
			unpacked += int64(rows * w)
		}
	}
	charge(params.CopyTime(unpacked * machine.BytesPerElem))
}

// EpochCost sums Cost over the dense widths of an epoch's multiplies, one
// snapshot per width.
func (p *Plan) EpochCost(params machine.Params, widths []int) *machine.Snapshot {
	var c *machine.Snapshot
	for _, w := range widths {
		c = c.Add(p.Cost(params, w))
	}
	return c
}

// setupPanel is the column width of the multiplies the set-up product
// Â·X runs as (SetupWidths). Every executor workspace and pooled transport
// buffer a multiply grows is sized by its width and kept for the next
// multiply, so one at the feature width (300 or 602 on the presets) would
// size them for the rest of the run; in panels they stay this wide. 64 is
// wider than every epoch multiply of the default model (16 hidden units:
// an epoch multiplies at hidden widths only), so no epoch regrows one, and
// a wider panel saves only α terms (EXPERIMENTS.md "What set-up keeps").
const setupPanel = 64

// SetupWidths returns the dense widths of the multiplies the set-up product
// Â·X of an f-feature input runs as, in order: f in column panels of
// setupPanel, the last one narrower when setupPanel does not divide f.
// gcn.InputProduct issues exactly these and the candidate sweep prices them
// (EpochCost over these widths): the bytes are one f-wide multiply's,
// since volume is linear in width, and each panel adds its α terms.
func SetupWidths(f int) []int {
	widths := make([]int, 0, (f+setupPanel-1)/setupPanel)
	for c := 0; c < f; c += setupPanel {
		widths = append(widths, min(setupPanel, f-c))
	}
	return widths
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
// replication factor c on w's P ranks. A triple Spec rejects — an unknown
// name, c ≠ 1 for a 1D engine, a 1.5D grid P does not allow — is returned
// as an error carrying Spec's reason, before anything is compiled.
func NewEngine(w *comm.World, name string, c int, aT *sparse.CSR, layout Layout) (Engine, error) {
	if skip := Spec(name, c, w.P).Skip; skip != "" {
		return nil, fmt.Errorf("distmm: %s", skip)
	}
	switch name {
	case "oblivious-1d":
		return NewOblivious1D(w, aT, layout), nil
	case "sparsity-aware-1d":
		return NewSparsityAware1D(w, aT, layout), nil
	case "oblivious-1.5d":
		return NewOblivious15D(w, aT, c, layout), nil
	default:
		return NewSparsityAware15D(w, aT, c, layout), nil
	}
}

// CandidateSpec names one (algorithm, replication) configuration of the
// algorithm-candidate sweep behind auto-selection and cost estimation.
type CandidateSpec struct {
	// Name is the engine name the spec compiles to ("oblivious-1d", ...).
	Name string
	// C is the 1.5D replication factor (1 for 1D).
	C int
	// Skip is non-empty when the configuration cannot compile at the
	// spec's world size, with the reason.
	Skip string
}

// Spec returns the configuration of engine name at replication factor c on
// p ranks, with Skip saying why it cannot compile ("" when it can). It is
// the one statement of the rule: the 1D engines take c = 1, and the 1.5D
// engines need a (P/c)×c grid with P/c² ≥ 1 stages per process — c ≥ 1,
// c | P and c² | P. NewEngine, NewGrid and EnumerateCandidates all ask it.
func Spec(name string, c, p int) CandidateSpec {
	s := CandidateSpec{Name: name, C: c}
	switch name {
	case "oblivious-1d", "sparsity-aware-1d":
		if c != 1 {
			s.Skip = fmt.Sprintf("%s is a 1D algorithm; replication must be 1, got %d", name, c)
		}
	case "oblivious-1.5d", "sparsity-aware-1.5d":
		switch {
		case c < 1:
			s.Skip = fmt.Sprintf("replication factor %d is not positive", c)
		case p%c != 0:
			s.Skip = fmt.Sprintf("replication factor %d does not divide P=%d", c, p)
		case (p/c)%c != 0:
			s.Skip = fmt.Sprintf("1.5D needs c² | P; got P=%d c=%d", p, c)
		}
	default:
		s.Skip = fmt.Sprintf("unknown algorithm %q", name)
	}
	return s
}

// EnumerateCandidates lists, in deterministic order, every algorithm
// candidate at world size p: the 1D pair, then the 1.5D pairs over
// c ∈ {2, 4}, each as Spec reports it, so a candidate p forbids carries
// its Skip reason.
func EnumerateCandidates(p int) []CandidateSpec {
	specs := []CandidateSpec{Spec("oblivious-1d", 1, p), Spec("sparsity-aware-1d", 1, p)}
	for _, c := range []int{2, 4} {
		specs = append(specs, Spec("oblivious-1.5d", c, p), Spec("sparsity-aware-1.5d", c, p))
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
	// store holds the remote feature rows a sampled gather keeps, row-major
	// at the feature width; halo is where an exchange with a halo lands and
	// the local sweep reads. Both are grow-only.
	store, halo []float64
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
		acc = asMatrix(&ws.zh, out.Rows, f, dense.Grow(&ws.zhat, out.Rows*f))
	}
	prog := p.progs[r.ID]
	if !sweepsFirst(prog) {
		acc.Zero()
	}
	var exch *instr // the last all-to-allv
	var halo []float64
	for i := range prog {
		in := &prog[i]
		switch in.op {
		case opBcastMul:
			var payload []float64
			if in.own {
				payload = hLocal.Data
			}
			data := in.group.BcastFloatsInto(r, in.root, payload, dense.Grow(&ws.recv, in.rows*f), "bcast")
			in.blk.SpMMAddInto(acc, asMatrix(&ws.hj, in.rows, f, data))
			r.ChargeCompute("local", params.SpMMTime(in.blk.Flops(f)))
		case opAllToAllv:
			var packElems int64
			for j, idx := range in.sendIdx {
				ws.send[j] = nil
				if len(idx) == 0 {
					continue
				}
				buf := dense.Grow(&ws.sendBufs[j], len(idx)*f)
				hLocal.GatherRowsInto(buf, idx)
				ws.send[j] = buf
				packElems += int64(len(buf))
			}
			// Packing the requested rows is the extra local work
			// sparsity-aware communication introduces (the larger "local"
			// bars of the paper's Figure 4 breakdown).
			r.ChargeCompute("local", params.CopyTime(packElems*machine.BytesPerElem))
			exch = in
			halo = dense.Grow(&ws.halo, in.at[len(in.at)-1]*f)
			for j, rows := range in.recvRows {
				if rows == in.at[j+1]-in.at[j] {
					ws.recvPtr[j] = halo[in.at[j]*f : in.at[j+1]*f]
				} else {
					ws.recvPtr[j] = dense.Grow(&ws.recvBufs[j], rows*f)
				}
			}
			in.group.AllToAllvInto(r, ws.send, ws.recvPtr, "alltoall")
		case opMulOwn:
			if exch == nil {
				in.blk.SpMMAddInto(acc, hLocal)
			} else {
				// The local sweep: complete the fill-mapped slots in the
				// halo, then one pass over the accumulator's rows.
				for j := range exch.fills {
					ws.slotRows(&exch.fills[j], ws.recvPtr[j], halo[exch.at[j]*f:exch.at[j+1]*f], f)
				}
				in.blk.SpMMPairInto(acc, hLocal, exch.halo, asMatrix(&ws.hj, exch.halo.NumCols, f, halo))
			}
			mulOwnCharges(in.blk, exch, params, f, func(sec float64) { r.ChargeCompute("local", sec) })
		case opAllReduce:
			in.group.AllReduceSumInto(r, acc.Data, out.Data, "allreduce")
		}
	}
}

// sweepsFirst reports whether the first multiply of prog is a local sweep,
// which writes every accumulator row itself, so the executor need not zero
// the accumulator first.
func sweepsFirst(prog []instr) bool {
	exchanged := false
	for i := range prog {
		switch prog[i].op {
		case opAllToAllv:
			exchanged = true
		case opMulOwn:
			return exchanged
		case opBcastMul, opAllReduce:
			return false
		}
	}
	return false
}

// growStore makes the resident store at least n floats long, keeping the
// rows it holds. It grows by the one grow rule (dense.Grow): a store that
// fills step by step reallocates a few times, each time with a quarter's
// headroom. (Growing it at once to its bound, the rank's own row count at
// the feature width, costs more: the runtime zeroes the whole bound, while
// a store fills only as rows first reach the rank.)
func (ws *execWS) growStore(n int) {
	if n <= cap(ws.store) {
		ws.store = ws.store[:max(n, len(ws.store))]
		return
	}
	held := ws.store
	copy(dense.Grow(&ws.store, n), held)
}

// slotRows completes one slot of a sampled step in its halo rows dst from
// its landing. Landed rows the step keeps are copied into the resident
// store first. Without a fill map the landing is the slot and already sits
// in dst; with one the slot is assembled into dst in the compact block's
// column order, each row from the store or the landing, so the sweep sees
// the values and order a full landing would have given it.
func (ws *execWS) slotRows(in *slotFill, landed, dst []float64, f int) {
	if in.keep > 0 {
		copy(ws.store[in.storeAt*f:], landed[:in.keep*f])
	}
	for k, src := range in.fill {
		from := landed
		if src < 0 {
			from, src = ws.store, -1-src
		}
		copy(dst[k*f:(k+1)*f], from[src*f:(src+1)*f])
	}
}

// planEngine is the one engine type: a Plan and its per-rank workspaces.
// The full-batch constructors compile an algorithm into a Plan and wrap it
// here; SampledGather embeds it and swaps plans per batch.
type planEngine struct {
	plan *Plan
	ws   []*execWS
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

// MultiplyInto implements Engine: one pass of the executor, which Cost
// prices.
func (e *planEngine) MultiplyInto(r *comm.Rank, hLocal, out *dense.Matrix) {
	checkMultiplyShapes(r.ID, e.plan.inRowsOf(r.ID), e.plan.outRows[r.ID], hLocal, out)
	if e.plan.store != nil {
		e.ws[r.ID].growStore(e.plan.store[r.ID] * hLocal.Cols)
	}
	e.plan.execute(r, hLocal, out, e.ws[r.ID])
}
