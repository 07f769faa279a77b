package distmm

import (
	"fmt"
	"slices"
	"strings"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
)

// This file is the static plan verifier. A Plan is a complete, immutable
// description of every rank's communication choreography, so its safety
// properties can be proven before a single byte moves — the static
// counterpart of the chaos harness's runtime deadlock detection:
//
//   - Matching: every collective occurrence is entered by all group members
//     with consistent operation, root, and payload shape, and what each
//     all-to-allv member packs for another is what that one expects to land.
//   - Deadlock-freedom: one abstract run of the per-rank programs under the
//     transports' own rule — a collective waits for every member of its
//     group — reaches the end of every program. Matching is checked on the
//     same run, as each collective completes.
//   - Layout consistency: blockOf/outRows/inRows agree with the layout,
//     every SpMM block's dimensions match its accumulator rows and staged
//     operand rows, every halo slot is filled by its landing or by a fill
//     map whose references and kept rows lie inside that landing or the
//     rank's resident store, and every slot's nonzero count is the merged
//     operand's entries in its halo columns.
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
	// with the instruction payloads, or an exchange's merged operand with
	// its slots.
	VerifyLayout
	// VerifyMatching: inconsistent collective participation, or members of
	// one collective that disagree on its operation, root or shapes.
	VerifyMatching
	// VerifyDeadlock: the abstract run leaves ranks blocked short of their
	// program's end, each waiting on a collective some member of its group
	// never enters while it waits.
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
	var v verifier
	return v.verify(p)
}

// verify is Verify on v's storage, which it leaves grown for the next plan:
// a verifier kept across plans (a sampled gather's) checks a warmed step
// without allocating.
func (v *verifier) verify(p *Plan) error {
	if err := v.reset(p); err != nil {
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

// verifier holds one Verify run's derived state: the per-group tables the
// count pre-check fills and the abstract run consumes, indexed in
// first-encounter order, and the checks' scratch.
type verifier struct {
	p *Plan
	n int

	groupIdx map[*comm.Group]int // → groups index
	groups   []collGroup

	perRow    []int // checkHalo: entries per halo row
	pc, ready []int // run: per-rank program counter, ready stack
}

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

// reset points v at plan p, keeping its storage, and validates the
// plan-global metadata shape and layout agreement.
func (v *verifier) reset(p *Plan) error {
	v.p, v.groups = p, v.groups[:0]
	clear(v.groupIdx)
	if p == nil {
		return &VerifyError{Plan: "<nil>", Kind: VerifyStructure, Rank: -1, Site: -1, Detail: "nil plan"}
	}
	v.n = len(p.progs)
	if v.n == 0 {
		return v.err(VerifyStructure, -1, -1, "plan has no per-rank programs")
	}
	if p.world == nil || p.world.P != v.n {
		return v.err(VerifyStructure, -1, -1, "plan compiled for %d ranks does not match its world", v.n)
	}
	if len(p.blockOf) != v.n || len(p.outRows) != v.n || len(p.gradGroups) != v.n {
		return v.err(VerifyStructure, -1, -1, "per-rank metadata length does not match %d programs", v.n)
	}
	if p.inRows != nil && len(p.inRows) != v.n {
		return v.err(VerifyStructure, -1, -1, "inRows length %d for %d ranks", len(p.inRows), v.n)
	}
	if p.store != nil && len(p.store) != v.n {
		return v.err(VerifyStructure, -1, -1, "store length %d for %d ranks", len(p.store), v.n)
	}
	blocks := p.layout.Blocks()
	for rank := 0; rank < v.n; rank++ {
		b := p.blockOf[rank]
		if b < 0 || b >= blocks {
			return v.err(VerifyLayout, rank, -1, "block row %d outside layout of %d blocks", b, blocks)
		}
		if p.inRows == nil {
			// Square plan: the output block is the layout block.
			if want := p.layout.Count(b); p.outRows[rank] != want {
				return v.err(VerifyLayout, rank, -1, "output block has %d rows, layout block %d has %d", p.outRows[rank], b, want)
			}
		} else {
			// Rectangular plan: the dense input is the layout block; the
			// accumulator height is free (the rank's batch frontier).
			if want := p.layout.Count(b); p.inRows[rank] != want {
				return v.err(VerifyLayout, rank, -1, "input block has %d rows, layout block %d has %d", p.inRows[rank], b, want)
			}
			if p.outRows[rank] < 0 {
				return v.err(VerifyLayout, rank, -1, "negative output height %d", p.outRows[rank])
			}
		}
		// A resident store holds at most the rank's own row count.
		if p.store != nil && (p.store[rank] < 0 || p.store[rank] > p.inRowsOf(rank)) {
			return v.err(VerifyLayout, rank, -1, "resident store of %d rows outside [0, %d]", p.store[rank], p.inRowsOf(rank))
		}
	}
	return nil
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
		exchanged, multiplied := false, false
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
				multiplied = true
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
				exchanged = true
			case opMulOwn:
				if err := v.checkBlock(rank, site, in, own, hRows); err != nil {
					return err
				}
				// A sweep writes the accumulator rather than adding to it.
				if exchanged && multiplied {
					return v.err(VerifyLayout, rank, site, "local sweep after an earlier multiply would overwrite it")
				}
				multiplied = true
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
	}
	return nil
}

// checkHalo validates an all-to-allv's halo: at is one first row per group
// member plus the halo height, starting at 0 and never decreasing; the
// merged operand is as tall as the accumulator and as wide as the halo, and
// holds nnz[j] entries in slot j's columns [at[j], at[j+1]); and every slot
// is completed by its landing (checkSlotFill).
func (v *verifier) checkHalo(rank, site int, in *instr, accRows int) *VerifyError {
	g := len(in.recvRows)
	if len(in.at) != g+1 || in.at[0] != 0 {
		return v.err(VerifyStructure, rank, site, "halo layout of %d offsets for a group of %d", len(in.at), g)
	}
	for j := 1; j < len(in.at); j++ {
		if in.at[j] < in.at[j-1] {
			return v.err(VerifyStructure, rank, site, "halo slot %d starts at row %d, before slot %d's %d", j, in.at[j], j-1, in.at[j-1])
		}
	}
	if in.halo == nil || len(in.nnz) != g || (in.fills != nil && len(in.fills) != g) {
		return v.err(VerifyStructure, rank, site, "exchange without a merged operand and one nonzero count (and fill) per slot of %d", g)
	}
	h, height := in.halo, in.at[g]
	if h.NumRows != accRows || h.NumCols != height {
		return v.err(VerifyLayout, rank, site, "merged operand is %dx%d, accumulator %d rows, halo %d rows", h.NumRows, h.NumCols, accRows, height)
	}
	perRow := dense.Grow(&v.perRow, height)
	clear(perRow)
	for _, c := range h.ColIdx {
		if c < 0 || c >= height {
			return v.err(VerifyLayout, rank, site, "merged operand entry in column %d, outside the halo's %d rows", c, height)
		}
		perRow[c]++
	}
	for j := 0; j < g; j++ {
		nnz := 0
		for _, n := range perRow[in.at[j]:in.at[j+1]] {
			nnz += n
		}
		if nnz != in.nnz[j] {
			return v.err(VerifyLayout, rank, site, "slot %d counts %d nonzeros, the merged operand has %d in its halo rows [%d, %d)", j, in.nnz[j], nnz, in.at[j], in.at[j+1])
		}
		if err := v.checkSlotFill(rank, site, in, j); err != nil {
			return err
		}
	}
	return nil
}

// checkSlotFill validates how exchange in completes slot j in its halo
// rows: without a fill map the slot is exactly its landing; with one, it
// lands fewer rows than it holds (so the landing leaves the halo for a
// buffer of its own) and every slot row references a landed row or a row of
// the rank's resident store. The rows it keeps must have landed and must fit
// the store.
func (v *verifier) checkSlotFill(rank, site int, in *instr, j int) *VerifyError {
	rows, landed := in.at[j+1]-in.at[j], in.recvRows[j]
	var fl slotFill
	if in.fills != nil {
		fl = in.fills[j]
	}
	store := 0
	if v.p.store != nil {
		store = v.p.store[rank]
	}
	if fl.fill == nil {
		if rows != landed {
			return v.err(VerifyLayout, rank, site, "slot %d holds %d halo rows and lands %d", j, rows, landed)
		}
	} else {
		if landed >= rows {
			return v.err(VerifyLayout, rank, site, "slot %d has a fill map but lands all %d of its rows in place", j, rows)
		}
		if len(fl.fill) != rows {
			return v.err(VerifyLayout, rank, site, "fill map of %d rows for slot %d of %d", len(fl.fill), j, rows)
		}
		for k, src := range fl.fill {
			if src >= landed || -1-src >= store {
				return v.err(VerifyLayout, rank, site, "slot %d row %d reads %d, outside %d landed and %d stored rows", j, k, src, landed, store)
			}
		}
	}
	if fl.keep < 0 || fl.keep > landed || (fl.keep > 0 && (fl.storeAt < 0 || fl.storeAt+fl.keep > store)) {
		return v.err(VerifyLayout, rank, site, "slot %d keeps %d of %d landed rows at store row %d of %d", j, fl.keep, landed, fl.storeAt, store)
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

// checkCounts is the matching pre-check: every member of a group enters as
// many of its collectives as every other member.
func (v *verifier) checkCounts() error {
	if v.groupIdx == nil {
		v.groupIdx = make(map[*comm.Group]int)
	}
	for rank := 0; rank < v.n; rank++ {
		prog := v.p.progs[rank]
		for site := range prog {
			in := &prog[site]
			switch in.op {
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
					v.groups = slices.Grow(v.groups, 1)[:i+1]
					c := &v.groups[i]
					c.g, c.parked = in.group, 0
					clear(dense.Grow(&c.entries, in.group.Size()))
				}
				me, _ := in.group.Index(rank) // membership proven by checkPrograms
				v.groups[i].entries[me]++
			}
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

// run is one abstract execution of the per-rank programs under the
// transports' rule. Each ready rank advances until it finishes or blocks: a
// local instruction never blocks, and a collective parks the rank until
// every member of its group is parked on one, then completes for all of
// them (checkCollective). Ranks still short of their program's end when no
// rank is ready are a deadlock.
func (v *verifier) run() error {
	p := v.p
	pc := dense.Grow(&v.pc, v.n)
	// A stack, rank 0 on top. A rank is on it at most once, so it never
	// outgrows v.ready.
	ready := dense.Grow(&v.ready, v.n)
	for r := range ready {
		pc[r], ready[r] = 0, v.n-1-r
	}
	for len(ready) > 0 {
		rank := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		prog := p.progs[rank]
	advance:
		for pc[rank] < len(prog) {
			switch in := &prog[pc[rank]]; in.op {
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
