package distmm

import (
	"fmt"
	"math"
	"strings"

	"sagnn/internal/comm"
)

// This file is the static plan verifier. A Plan is a complete, immutable
// description of every rank's communication choreography, so its safety
// properties can be proven before a single byte moves — the static
// counterpart of the chaos harness's runtime deadlock detection:
//
//   - Matching: every point-to-point send has exactly one matching receive
//     (same tag, same element count, in per-pair FIFO order), and every
//     collective occurrence is entered by all group members with consistent
//     operation, root, and payload shape.
//   - Deadlock-freedom: one abstract run of the per-rank programs under the
//     transports' own rules — a send never blocks and appends to its
//     (src, dst) FIFO, a receive waits for that FIFO's oldest entry, a
//     collective waits for every member of its group — reaches the end of
//     every program. Matching is checked on the same run, as each receive
//     pops and each collective completes.
//   - Layout consistency: blockOf/outRows/inRows agree with the layout,
//     every SpMM block's dimensions match its accumulator rows and staged
//     operand rows, every fill reference and kept row of a sampled gather
//     lies inside its slot's landing or the rank's resident store, and every
//     local sweep's merged operand is exactly the slot blocks it replaces.
//
// Verify runs at compile time only (engine constructors, candidate sweeps,
// test harnesses); the steady-state execute path never touches it.

// VerifyKind classifies which property a VerifyError found violated.
type VerifyKind uint8

const (
	// VerifyStructure: malformed plan metadata or instruction operands
	// (lengths, group membership, operand ranges, epilogue placement).
	VerifyStructure VerifyKind = iota
	// VerifyLayout: blockOf/outRows/inRows or SpMM block dimensions disagree
	// with the instruction payloads, or a local sweep's merged operand with
	// the slots it multiplies.
	VerifyLayout
	// VerifyMatching: an unmatched or misordered send/recv pair, a tag or
	// size mismatch, or inconsistent collective participation.
	VerifyMatching
	// VerifyDeadlock: the abstract run leaves ranks blocked short of their
	// program's end, each waiting on a message or a collective no other rank
	// will provide.
	VerifyDeadlock
)

// String names the kind for error text and tables.
func (k VerifyKind) String() string {
	switch k {
	case VerifyStructure:
		return "structure"
	case VerifyLayout:
		return "layout"
	case VerifyMatching:
		return "matching"
	case VerifyDeadlock:
		return "deadlock"
	}
	return fmt.Sprintf("VerifyKind(%d)", uint8(k))
}

// VerifyError is the typed, rank-attributed rejection Verify returns: which
// plan, which property, and — when the violation is localized — which rank's
// program and which instruction site.
type VerifyError struct {
	Plan   string
	Kind   VerifyKind
	Rank   int // offending world rank, -1 when plan-global
	Site   int // instruction index in the rank's program, -1 when not site-specific
	Detail string
}

// Error implements error.
func (e *VerifyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "distmm: verify %s: %s", e.Plan, e.Kind)
	if e.Rank >= 0 {
		fmt.Fprintf(&b, ": rank %d", e.Rank)
		if e.Site >= 0 {
			fmt.Fprintf(&b, " instr %d", e.Site)
		}
	}
	b.WriteString(": ")
	b.WriteString(e.Detail)
	return b.String()
}

// String names the opcode for verifier errors and coverage tables.
func (op opcode) String() string {
	switch op {
	case opBcastMul:
		return "bcast-mul"
	case opAllToAllv:
		return "all-to-allv"
	case opMulOwn:
		return "mul-own"
	case opMulRecvSlot:
		return "mul-recv-slot"
	case opChargeUnpack:
		return "charge-unpack"
	case opSendRows:
		return "send-rows"
	case opChargePack:
		return "charge-pack"
	case opRecvMul:
		return "recv-mul"
	case opAllReduce:
		return "all-reduce"
	}
	return fmt.Sprintf("opcode(%d)", uint8(op))
}

// Sites returns the total number of compiled instruction sites across all
// ranks — the verifier's coverage unit (every site is checked).
func (p *Plan) Sites() int {
	n := 0
	for _, prog := range p.progs {
		n += len(prog)
	}
	return n
}

// Verify statically checks the plan's communication choreography and
// returns a *VerifyError describing the first violation found, or nil when
// the schedule is provably well-formed and deadlock-free.
// Checks run cheapest-first, and every pass reports deterministically.
func Verify(p *Plan) error {
	v, err := newVerifier(p)
	if err != nil {
		return err
	}
	if err := v.checkPrograms(); err != nil {
		return err
	}
	if err := v.checkCounts(); err != nil {
		return err
	}
	return v.run()
}

// verifier holds one Verify run's derived state: the per-pair queues and
// per-group tables the count pre-check fills and the abstract run consumes,
// each indexed in first-encounter order.
type verifier struct {
	p *Plan
	n int

	pairIdx  map[[2]int]int // (src, dst) → pairs index
	pairs    []p2pQueue
	groupIdx map[*comm.Group]int // → groups index
	groups   []collGroup
}

// p2pQueue is one (src, dst) pair: its send and receive counts, and its FIFO
// in the abstract run.
type p2pQueue struct {
	src, dst     int
	sends, recvs int
	q            []p2pMsg
	head         int
}

// p2pMsg is one queued send with its wire signature. Payloads are counted in
// H rows: every payload of an execution scales by the same dense width, so
// matching row counts match at every width.
type p2pMsg struct{ site, tag, rows int }

// collGroup is one group: collective entries per member, and how many
// members are parked on their next collective in the abstract run.
type collGroup struct {
	g       *comm.Group
	entries []int
	parked  int
}

func (v *verifier) err(k VerifyKind, rank, site int, format string, args ...any) *VerifyError {
	return &VerifyError{Plan: v.p.name, Kind: k, Rank: rank, Site: site, Detail: fmt.Sprintf(format, args...)}
}

// newVerifier validates the plan-global metadata shape and layout agreement.
func newVerifier(p *Plan) (*verifier, error) {
	v := &verifier{p: p}
	if p == nil {
		return nil, &VerifyError{Plan: "<nil>", Kind: VerifyStructure, Rank: -1, Site: -1, Detail: "nil plan"}
	}
	v.n = len(p.progs)
	if v.n == 0 {
		return nil, v.err(VerifyStructure, -1, -1, "plan has no per-rank programs")
	}
	if p.world == nil || p.world.P != v.n {
		return nil, v.err(VerifyStructure, -1, -1, "plan compiled for %d ranks does not match its world", v.n)
	}
	if len(p.blockOf) != v.n || len(p.outRows) != v.n || len(p.gradGroups) != v.n {
		return nil, v.err(VerifyStructure, -1, -1, "per-rank metadata length does not match %d programs", v.n)
	}
	if p.inRows != nil && len(p.inRows) != v.n {
		return nil, v.err(VerifyStructure, -1, -1, "inRows length %d for %d ranks", len(p.inRows), v.n)
	}
	if p.store != nil && len(p.store) != v.n {
		return nil, v.err(VerifyStructure, -1, -1, "store length %d for %d ranks", len(p.store), v.n)
	}
	blocks := p.layout.Blocks()
	for rank := 0; rank < v.n; rank++ {
		b := p.blockOf[rank]
		if b < 0 || b >= blocks {
			return nil, v.err(VerifyLayout, rank, -1, "block row %d outside layout of %d blocks", b, blocks)
		}
		if p.inRows == nil {
			// Square plan: the output block is the layout block.
			if want := p.layout.Count(b); p.outRows[rank] != want {
				return nil, v.err(VerifyLayout, rank, -1, "output block has %d rows, layout block %d has %d", p.outRows[rank], b, want)
			}
		} else {
			// Rectangular plan: the dense input is the layout block; the
			// accumulator height is free (the rank's batch frontier).
			if want := p.layout.Count(b); p.inRows[rank] != want {
				return nil, v.err(VerifyLayout, rank, -1, "input block has %d rows, layout block %d has %d", p.inRows[rank], b, want)
			}
			if p.outRows[rank] < 0 {
				return nil, v.err(VerifyLayout, rank, -1, "negative output height %d", p.outRows[rank])
			}
		}
		// A resident store holds at most the rank's own row count.
		if p.store != nil && (p.store[rank] < 0 || p.store[rank] > p.inRowsOf(rank)) {
			return nil, v.err(VerifyLayout, rank, -1, "resident store of %d rows outside [0, %d]", p.store[rank], p.inRowsOf(rank))
		}
	}
	return v, nil
}

// checkPrograms validates every instruction site locally: operand ranges,
// group membership, SpMM block dimensions against the accumulator and the
// staged rows, staged-buffer definition before use, and the all-reduce
// epilogue placement.
func (v *verifier) checkPrograms() error {
	p := v.p
	for rank := 0; rank < v.n; rank++ {
		prog := p.progs[rank]
		own := p.outRows[rank]    // accumulator height
		hRows := p.inRowsOf(rank) // dense input (hLocal) height
		var lastA2A *instr
		reduced := false // a trailing all-reduce has started
		for site := range prog {
			in := &prog[site]
			if reduced && in.op != opAllReduce {
				return v.err(VerifyStructure, rank, site, "%s after the all-reduce epilogue began", in.op)
			}
			switch in.op {
			case opBcastMul:
				g := in.group
				if g == nil {
					return v.err(VerifyStructure, rank, site, "bcast-mul without a group")
				}
				if _, ok := g.Index(rank); !ok {
					return v.err(VerifyStructure, rank, site, "rank is not a member of its bcast group")
				}
				if in.root < 0 || in.root >= g.Size() {
					return v.err(VerifyStructure, rank, site, "bcast root index %d outside group of %d", in.root, g.Size())
				}
				rootRank := g.Member(in.root)
				if in.own != (rootRank == rank) {
					return v.err(VerifyStructure, rank, site, "own flag %v disagrees with bcast root rank %d", in.own, rootRank)
				}
				if rootRank < 0 || rootRank >= v.n {
					return v.err(VerifyStructure, rank, site, "bcast root rank %d outside world of %d", rootRank, v.n)
				}
				if in.rows != p.inRowsOf(rootRank) {
					return v.err(VerifyLayout, rank, site, "bcast stages %d rows, root rank %d holds %d", in.rows, rootRank, p.inRowsOf(rootRank))
				}
				if err := v.checkBlock(rank, site, in, own, in.rows); err != nil {
					return err
				}
			case opAllToAllv:
				g := in.group
				if g == nil {
					return v.err(VerifyStructure, rank, site, "all-to-allv without a group")
				}
				me, ok := g.Index(rank)
				if !ok {
					return v.err(VerifyStructure, rank, site, "rank is not a member of its all-to-allv group")
				}
				if in.slot != me {
					return v.err(VerifyStructure, rank, site, "slot %d is not the rank's group index %d", in.slot, me)
				}
				if len(in.sendIdx) != g.Size() || len(in.recvRows) != g.Size() {
					return v.err(VerifyStructure, rank, site, "send/recv shapes sized %d/%d for group of %d", len(in.sendIdx), len(in.recvRows), g.Size())
				}
				if len(in.sendIdx[me]) != 0 || in.recvRows[me] != 0 {
					return v.err(VerifyStructure, rank, site, "all-to-allv exchanges %d/%d rows with itself", len(in.sendIdx[me]), in.recvRows[me])
				}
				for j := range in.sendIdx {
					for _, r := range in.sendIdx[j] {
						if r < 0 || r >= hRows {
							return v.err(VerifyLayout, rank, site, "pack index %d outside the rank's %d H rows", r, hRows)
						}
					}
					if in.recvRows[j] < 0 {
						return v.err(VerifyStructure, rank, site, "negative landing count %d from peer slot %d", in.recvRows[j], j)
					}
				}
				if err := v.checkHalo(rank, site, in, own); err != nil {
					return err
				}
				lastA2A = in
			case opMulOwn:
				if err := v.checkBlock(rank, site, in, own, hRows); err != nil {
					return err
				}
			case opMulRecvSlot:
				if lastA2A == nil {
					return v.err(VerifyStructure, rank, site, "consumes an all-to-allv slot before any exchange landed")
				}
				if in.slot < 0 || in.slot >= len(lastA2A.recvRows) {
					return v.err(VerifyStructure, rank, site, "slot %d outside the exchange's %d landings", in.slot, len(lastA2A.recvRows))
				}
				if err := v.checkSlotFill(rank, site, in, lastA2A.recvRows[in.slot]); err != nil {
					return err
				}
				if err := v.checkBlock(rank, site, in, own, in.rows); err != nil {
					return err
				}
			case opChargeUnpack, opChargePack:
				// Accounting-only sites carry no operands to validate.
			case opSendRows:
				if in.peer < 0 || in.peer >= v.n || in.peer == rank {
					return v.err(VerifyStructure, rank, site, "send peer %d invalid in world of %d", in.peer, v.n)
				}
				for _, r := range in.idx {
					if r < 0 || r >= hRows {
						return v.err(VerifyLayout, rank, site, "pack index %d outside the rank's %d H rows", r, hRows)
					}
				}
			case opRecvMul:
				if in.peer < 0 || in.peer >= v.n || in.peer == rank {
					return v.err(VerifyStructure, rank, site, "recv peer %d invalid in world of %d", in.peer, v.n)
				}
				if in.rows < 0 {
					return v.err(VerifyStructure, rank, site, "negative staged row count %d", in.rows)
				}
				if in.rows > 0 {
					if err := v.checkBlock(rank, site, in, own, in.rows); err != nil {
						return err
					}
				}
			case opAllReduce:
				g := in.group
				if g == nil {
					return v.err(VerifyStructure, rank, site, "all-reduce without a group")
				}
				if _, ok := g.Index(rank); !ok {
					return v.err(VerifyStructure, rank, site, "rank is not a member of its all-reduce group")
				}
				if !p.partial {
					return v.err(VerifyStructure, rank, site, "all-reduce in a non-partial plan would alias the output with its accumulator")
				}
				reduced = true
			default:
				return v.err(VerifyStructure, rank, site, "unknown opcode %d", uint8(in.op))
			}
		}
		if p.partial && !reduced {
			return v.err(VerifyStructure, rank, -1, "partial plan never folds its accumulator (no all-reduce)")
		}
		if err := v.checkSweeps(rank); err != nil {
			return err
		}
	}
	return nil
}

// checkHalo validates an all-to-allv's halo layout: at is one first row per
// group member plus the halo height, starting at 0 and never decreasing, and
// the merged operand is as tall as the accumulator and as wide as the halo.
func (v *verifier) checkHalo(rank, site int, in *instr, accRows int) *VerifyError {
	if (in.at == nil) != (in.halo == nil) {
		return v.err(VerifyStructure, rank, site, "halo layout and merged operand must come together")
	}
	if in.at == nil {
		return nil
	}
	if len(in.at) != len(in.recvRows)+1 || in.at[0] != 0 {
		return v.err(VerifyStructure, rank, site, "halo layout of %d offsets from %d for a group of %d", len(in.at), in.at[0], len(in.recvRows))
	}
	for j := 1; j < len(in.at); j++ {
		if in.at[j] < in.at[j-1] {
			return v.err(VerifyStructure, rank, site, "halo slot %d starts at row %d, before slot %d's %d", j, in.at[j], j-1, in.at[j-1])
		}
	}
	if in.halo.NumRows != accRows || in.halo.NumCols != in.at[len(in.at)-1] {
		return v.err(VerifyLayout, rank, site, "merged operand is %dx%d, accumulator %d rows, halo %d rows",
			in.halo.NumRows, in.halo.NumCols, accRows, in.at[len(in.at)-1])
	}
	return nil
}

// checkSweeps validates every local sweep of rank's program — an opMulOwn
// after an all-to-allv with a merged operand — once every site has passed
// its own checks. The executor multiplies an opMulRecvSlot only
// in the sweep right before it, so every slot must directly follow a sweep
// or another slot. A sweep writes the accumulator, so it must be the first
// multiply; and the merged operand must be, row for row, the blocks of the
// slots that follow it, in their order, each with its columns shifted to
// its slot's halo rows — so the one pass adds the products the per-slot
// multiplies would, in their order. Each swept slot must fill its halo
// rows, and one with a fill map must land fewer rows than it holds: such a
// landing leaves the halo for a buffer of its own, which the slot is
// assembled from.
func (v *verifier) checkSweeps(rank int) *VerifyError {
	prog := v.p.progs[rank]
	var exch *instr
	multiplied, swept := false, false
	for site := range prog {
		in := &prog[site]
		switch in.op {
		case opAllToAllv:
			exch = in
		case opMulRecvSlot:
			if !swept {
				return v.err(VerifyLayout, rank, site, "slot %d is not in a local sweep: the executor would not multiply it", in.slot)
			}
			multiplied = true
			continue
		case opBcastMul, opRecvMul:
			multiplied = true
		case opMulOwn:
			if exch != nil && exch.halo != nil {
				if multiplied {
					return v.err(VerifyLayout, rank, site, "local sweep after an earlier multiply would overwrite it")
				}
				if err := v.checkSweep(rank, site, exch); err != nil {
					return err
				}
				multiplied, swept = true, true
				continue
			}
			multiplied = true
		}
		swept = false
	}
	return nil
}

// checkSweep matches the merged operand of exch against the slots the
// sweep at site multiplies.
func (v *verifier) checkSweep(rank, site int, exch *instr) *VerifyError {
	prog, h := v.p.progs[rank], exch.halo
	next := append([]int(nil), h.RowPtr[:h.NumRows]...) // each row's next unmatched entry
	for k := site + 1; k < len(prog) && prog[k].op == opMulRecvSlot; k++ {
		s := &prog[k]
		lo, hi := exch.at[s.slot], exch.at[s.slot+1]
		if s.rows != hi-lo {
			return v.err(VerifyLayout, rank, k, "swept slot %d holds %d rows, its halo rows are [%d, %d)", s.slot, s.rows, lo, hi)
		}
		if s.fill != nil && exch.recvRows[s.slot] >= s.rows {
			return v.err(VerifyLayout, rank, k, "swept slot %d has a fill map but lands all %d of its rows in place", s.slot, s.rows)
		}
		b := s.blk
		for r := 0; r < b.NumRows; r++ {
			for p := b.RowPtr[r]; p < b.RowPtr[r+1]; p++ {
				q := next[r]
				if q == h.RowPtr[r+1] || h.ColIdx[q] != lo+b.ColIdx[p] || math.Float64bits(h.Val[q]) != math.Float64bits(b.Val[p]) {
					return v.err(VerifyLayout, rank, k, "merged operand row %d disagrees with slot %d's block at its entry %d", r, s.slot, p-b.RowPtr[r])
				}
				next[r]++
			}
		}
	}
	for r, q := range next {
		if q != h.RowPtr[r+1] {
			return v.err(VerifyLayout, rank, site, "merged operand row %d holds %d entries no swept slot has", r, h.RowPtr[r+1]-q)
		}
	}
	return nil
}

// checkSlotFill validates how one opMulRecvSlot assembles its operand from
// a slot that lands `landed` rows: without a fill map it consumes exactly
// those rows; with one, every slot row references a landed row or a row of
// the rank's resident store. The rows it keeps must have landed and must fit
// the store.
func (v *verifier) checkSlotFill(rank, site int, in *instr, landed int) *VerifyError {
	store := 0
	if v.p.store != nil {
		store = v.p.store[rank]
	}
	if in.fill == nil {
		if in.rows != landed {
			return v.err(VerifyLayout, rank, site, "consumes %d rows from slot %d, which lands %d", in.rows, in.slot, landed)
		}
	} else {
		if len(in.fill) != in.rows {
			return v.err(VerifyLayout, rank, site, "fill map of %d rows for a %d-row slot", len(in.fill), in.rows)
		}
		for k, src := range in.fill {
			if src >= landed || -1-src >= store {
				return v.err(VerifyLayout, rank, site, "slot row %d reads %d, outside %d landed and %d stored rows", k, src, landed, store)
			}
		}
	}
	if in.keep < 0 || in.keep > landed || (in.keep > 0 && (in.storeAt < 0 || in.storeAt+in.keep > store)) {
		return v.err(VerifyLayout, rank, site, "keeps %d of %d landed rows at store row %d of %d", in.keep, landed, in.storeAt, store)
	}
	return nil
}

// checkBlock validates one SpMM operand: accRows (the accumulator height)
// and opRows (the staged dense operand height) must match the block.
func (v *verifier) checkBlock(rank, site int, in *instr, accRows, opRows int) *VerifyError {
	if in.blk == nil {
		return v.err(VerifyStructure, rank, site, "%s without an SpMM block", in.op)
	}
	if in.blk.NumRows != accRows {
		return v.err(VerifyLayout, rank, site, "%s block has %d rows, accumulator has %d", in.op, in.blk.NumRows, accRows)
	}
	if in.blk.NumCols != opRows {
		return v.err(VerifyLayout, rank, site, "%s block has %d cols, staged operand has %d rows", in.op, in.blk.NumCols, opRows)
	}
	return nil
}

// checkCounts is the matching pre-check: every (src, dst) pair posts as many
// receives as sends, and every member of a group enters as many of its
// collectives as every other member.
func (v *verifier) checkCounts() error {
	v.pairIdx = make(map[[2]int]int)
	v.groupIdx = make(map[*comm.Group]int)
	for rank := 0; rank < v.n; rank++ {
		prog := v.p.progs[rank]
		for site := range prog {
			in := &prog[site]
			switch in.op {
			case opSendRows:
				v.pair(rank, in.peer).sends++
			case opRecvMul:
				v.pair(in.peer, rank).recvs++
			case opBcastMul, opAllToAllv, opAllReduce:
				i, ok := v.groupIdx[in.group]
				if !ok {
					for j := 0; j < in.group.Size(); j++ {
						if m := in.group.Member(j); m < 0 || m >= v.n {
							return v.err(VerifyStructure, rank, site, "group member rank %d outside world of %d", m, v.n)
						}
					}
					i = len(v.groups)
					v.groupIdx[in.group] = i
					v.groups = append(v.groups, collGroup{g: in.group, entries: make([]int, in.group.Size())})
				}
				me, _ := in.group.Index(rank) // membership proven by checkPrograms
				v.groups[i].entries[me]++
			}
		}
	}
	for _, q := range v.pairs {
		if q.sends > q.recvs {
			return v.err(VerifyMatching, q.src, -1, "%d sends to rank %d, which posts %d receives from it", q.sends, q.dst, q.recvs)
		}
		if q.recvs > q.sends {
			return v.err(VerifyMatching, q.dst, -1, "%d receives from rank %d, which posts %d sends to it", q.recvs, q.src, q.sends)
		}
	}
	for _, c := range v.groups {
		for i := 1; i < len(c.entries); i++ {
			if c.entries[i] != c.entries[0] {
				return v.err(VerifyMatching, c.g.Member(i), -1, "group participation: member rank %d enters %d collectives, member rank %d enters %d",
					c.g.Member(i), c.entries[i], c.g.Member(0), c.entries[0])
			}
		}
	}
	return nil
}

// pair returns the (src, dst) queue, creating it on first use.
func (v *verifier) pair(src, dst int) *p2pQueue {
	i, ok := v.pairIdx[[2]int{src, dst}]
	if !ok {
		i = len(v.pairs)
		v.pairIdx[[2]int{src, dst}] = i
		v.pairs = append(v.pairs, p2pQueue{src: src, dst: dst})
	}
	return &v.pairs[i]
}

// run is one abstract execution of the per-rank programs under the
// transports' rules. Each ready rank advances until it finishes or blocks: a
// send appends to its (src, dst) FIFO and wakes the receiver if it waits on
// that pair; a receive pops the FIFO's oldest entry, which must carry its tag
// and rows, or blocks while the FIFO is empty; a collective parks the rank
// until every member of its group is parked on one, then completes for all
// of them (checkCollective). Ranks still short of their program's end when
// no rank is ready are a deadlock.
func (v *verifier) run() error {
	p := v.p
	pc := make([]int, v.n)
	waitOn := make([]int, v.n) // the peer a blocked receive waits on, or -1
	ready := make([]int, v.n)  // a stack; rank 0 runs first
	for r := range ready {
		ready[r], waitOn[r] = v.n-1-r, -1
	}
	for len(ready) > 0 {
		rank := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		prog := p.progs[rank]
	advance:
		for pc[rank] < len(prog) {
			site := pc[rank]
			in := &prog[site]
			switch in.op {
			case opSendRows:
				q := &v.pairs[v.pairIdx[[2]int{rank, in.peer}]]
				q.q = append(q.q, p2pMsg{site: site, tag: in.tag, rows: len(in.idx)})
				if waitOn[in.peer] == rank {
					waitOn[in.peer] = -1
					ready = append(ready, in.peer)
				}
			case opRecvMul:
				q := &v.pairs[v.pairIdx[[2]int{in.peer, rank}]]
				if q.head == len(q.q) {
					waitOn[rank] = in.peer
					break advance
				}
				m := q.q[q.head]
				q.head++
				if m.tag != in.tag {
					return v.err(VerifyMatching, rank, site, "recv expects tag %d from rank %d, whose oldest queued send (instr %d) carries tag %d", in.tag, in.peer, m.site, m.tag)
				}
				if m.rows != in.rows {
					return v.err(VerifyMatching, rank, site, "recv expects %d rows from rank %d, whose oldest queued send (instr %d) carries %d", in.rows, in.peer, m.site, m.rows)
				}
			case opBcastMul, opAllToAllv, opAllReduce:
				c := &v.groups[v.groupIdx[in.group]]
				if c.parked++; c.parked < c.g.Size() {
					break advance
				}
				c.parked = 0
				if err := v.checkCollective(c.g, pc); err != nil {
					return err
				}
				for i := 0; i < c.g.Size(); i++ {
					if m := c.g.Member(i); m != rank {
						pc[m]++
						ready = append(ready, m)
					}
				}
			}
			pc[rank]++
		}
	}
	var blocked []int
	for rank, site := range pc {
		if site < len(p.progs[rank]) {
			blocked = append(blocked, rank)
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	at := make([]string, 0, 9)
	for _, rank := range blocked[:min(len(blocked), 8)] {
		at = append(at, fmt.Sprintf("rank %d instr %d (%s)", rank, pc[rank], p.progs[rank][pc[rank]].op))
	}
	if len(blocked) > 8 {
		at = append(at, fmt.Sprintf("and %d more", len(blocked)-8))
	}
	first := blocked[0]
	return v.err(VerifyDeadlock, first, pc[first], "%d ranks would wait forever at {%s}", len(blocked), strings.Join(at, ", "))
}

// checkCollective compares the entries of one collective every member of g
// is parked on (member m at instruction pc[m]): all run the same operation,
// broadcasts agree on root and rows, all-reduces on vector height, and what
// each all-to-allv member packs for another is what that one expects to land.
func (v *verifier) checkCollective(g *comm.Group, pc []int) error {
	p := v.p
	at := func(i int) (rank, site int, in *instr) {
		rank = g.Member(i)
		return rank, pc[rank], &p.progs[rank][pc[rank]]
	}
	r0, _, in0 := at(0)
	for i := 1; i < g.Size(); i++ {
		ri, si, ini := at(i)
		switch {
		case ini.op != in0.op:
			return v.err(VerifyMatching, ri, si, "collective: rank %d runs %s, rank %d runs %s", ri, ini.op, r0, in0.op)
		case in0.op == opBcastMul && ini.root != in0.root:
			return v.err(VerifyMatching, ri, si, "bcast: root %d vs rank %d's root %d", ini.root, r0, in0.root)
		case in0.op == opBcastMul && ini.rows != in0.rows:
			return v.err(VerifyMatching, ri, si, "bcast: payload of %d rows vs rank %d's %d", ini.rows, r0, in0.rows)
		case in0.op == opAllReduce && p.outRows[ri] != p.outRows[r0]:
			return v.err(VerifyMatching, ri, si, "all-reduce: vector of %d rows vs rank %d's %d", p.outRows[ri], r0, p.outRows[r0])
		}
	}
	if in0.op != opAllToAllv {
		return nil
	}
	for a := 0; a < g.Size(); a++ {
		ra, sa, ina := at(a)
		for b := 0; b < g.Size(); b++ {
			if b == a {
				continue
			}
			if rb, _, inb := at(b); ina.recvRows[b] != len(inb.sendIdx[a]) {
				return v.err(VerifyMatching, ra, sa, "all-to-allv: rank %d expects %d rows from rank %d, which packs %d", ra, ina.recvRows[b], rb, len(inb.sendIdx[a]))
			}
		}
	}
	return nil
}
