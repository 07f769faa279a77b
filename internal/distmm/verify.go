package distmm

import (
	"fmt"
	"sort"
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
//   - Deadlock-freedom: the cross-rank happens-before graph over the
//     instruction streams — program order per rank, send→recv edges for p2p
//     messages, one shared synchronization node per collective occurrence —
//     is acyclic, and no per-pair eager-send burst exceeds the mailbox
//     buffering (the premise under which sends are non-blocking).
//   - Overlap soundness: the pipelined stage decomposition the ExecOverlap
//     executor runs covers every instruction exactly once in its role, lands
//     at most one transfer per double-buffer stage, consumes each landing in
//     the stage that staged it (so parity buffers never alias an in-flight
//     transfer), keeps compute in program order (bit-identical
//     accumulation), and defers all-reduces to the epilogue.
//   - Layout consistency: blockOf/outRows/inRows agree with the layout, and
//     every SpMM block's dimensions match its accumulator rows and staged
//     operand rows.
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
	// with the instruction payloads.
	VerifyLayout
	// VerifyMatching: an unmatched or misordered send/recv pair, a tag or
	// size mismatch, or inconsistent collective participation.
	VerifyMatching
	// VerifyDeadlock: the cross-rank happens-before graph has a cycle, or an
	// eager-send burst overflows the mailbox buffering.
	VerifyDeadlock
	// VerifyOverlap: the pipelined stage decomposition would alias a
	// double-buffer slot, reorder accumulation, or use staged data before it
	// is defined.
	VerifyOverlap
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
	case VerifyOverlap:
		return "overlap"
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

// OpSites returns instruction-site counts by opcode name across all ranks,
// the per-engine coverage breakdown EXPERIMENTS.md reports.
func (p *Plan) OpSites() map[string]int {
	out := make(map[string]int)
	for _, prog := range p.progs {
		for i := range prog {
			out[prog[i].op.String()]++
		}
	}
	return out
}

// Verify statically checks the plan's communication choreography and
// returns a *VerifyError describing the first violation found, or nil when
// the schedule is provably well-formed, deadlock-free, and overlap-safe.
// Checks run cheapest-first, and within a pass violations are reported in
// deterministic (rank, site) order.
func Verify(p *Plan) error {
	v, err := newVerifier(p)
	if err != nil {
		return err
	}
	if err := v.checkPrograms(); err != nil {
		return err
	}
	if err := v.collectEvents(); err != nil {
		return err
	}
	if err := v.checkP2PMatching(); err != nil {
		return err
	}
	if err := v.checkCollectives(); err != nil {
		return err
	}
	if err := v.checkDeadlock(); err != nil {
		return err
	}
	return v.checkOverlap()
}

// verifier holds one Verify run's derived state: the per-pair p2p event
// sequences and per-group collective occurrence tables shared between the
// matching pass and the happens-before graph.
type verifier struct {
	p *Plan
	n int

	sends map[[2]int][]p2pEvent // (src,dst) → sends in program order
	recvs map[[2]int][]p2pEvent // (src,dst) → recvs in program order

	groups []*comm.Group // first-encounter order (deterministic reports)
	seqs   map[*comm.Group]*collSeq
}

// p2pEvent is one send or recv site with its wire signature. Payloads are
// counted in H rows: every payload of an execution scales by the same dense
// width, so matching row counts match at every width.
type p2pEvent struct {
	site int
	tag  int
	rows int
}

// collEvent is one rank's entry into one collective occurrence.
type collEvent struct {
	rank int
	site int
}

// collSeq is one group's collective occurrence table: perMember[i] lists
// member i's collective sites in program order, so occurrence t is row t
// across members.
type collSeq struct {
	g         *comm.Group
	perMember [][]collEvent
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
				if in.rows != lastA2A.recvRows[in.slot] {
					return v.err(VerifyLayout, rank, site, "consumes %d rows from slot %d, which lands %d", in.rows, in.slot, lastA2A.recvRows[in.slot])
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

// collectEvents builds the p2p event sequences and collective occurrence
// tables the matching and deadlock passes share.
func (v *verifier) collectEvents() error {
	v.sends = make(map[[2]int][]p2pEvent)
	v.recvs = make(map[[2]int][]p2pEvent)
	v.seqs = make(map[*comm.Group]*collSeq)
	for rank := 0; rank < v.n; rank++ {
		prog := v.p.progs[rank]
		for site := range prog {
			in := &prog[site]
			switch in.op {
			case opSendRows:
				key := [2]int{rank, in.peer}
				v.sends[key] = append(v.sends[key], p2pEvent{site: site, tag: in.tag, rows: len(in.idx)})
			case opRecvMul:
				key := [2]int{in.peer, rank}
				v.recvs[key] = append(v.recvs[key], p2pEvent{site: site, tag: in.tag, rows: in.rows})
			case opBcastMul, opAllToAllv, opAllReduce:
				s, ok := v.seqs[in.group]
				if !ok {
					for i := 0; i < in.group.Size(); i++ {
						if m := in.group.Member(i); m < 0 || m >= v.n {
							return v.err(VerifyStructure, rank, site, "group member rank %d outside world of %d", m, v.n)
						}
					}
					s = &collSeq{g: in.group, perMember: make([][]collEvent, in.group.Size())}
					v.seqs[in.group] = s
					v.groups = append(v.groups, in.group)
				}
				me, _ := in.group.Index(rank) // membership proven by checkPrograms
				s.perMember[me] = append(s.perMember[me], collEvent{rank: rank, site: site})
			}
		}
	}
	return nil
}

// checkP2PMatching proves every point-to-point send meets exactly one
// receive. Mailboxes are FIFO per (src,dst) pair, so the k-th send on a pair
// is consumed by the k-th recv: sequences must agree pairwise on tag and
// row count, and burst length must fit the eager buffering.
func (v *verifier) checkP2PMatching() error {
	for src := 0; src < v.n; src++ {
		for dst := 0; dst < v.n; dst++ {
			key := [2]int{src, dst}
			ss, rr := v.sends[key], v.recvs[key]
			if len(ss) > len(rr) {
				ev := ss[len(rr)]
				return v.err(VerifyMatching, src, ev.site, "send tag %d to rank %d has no matching recv", ev.tag, dst)
			}
			if len(rr) > len(ss) {
				ev := rr[len(ss)]
				return v.err(VerifyMatching, dst, ev.site, "recv tag %d from rank %d has no matching send", ev.tag, src)
			}
			if len(ss) > comm.MailboxDepth {
				ev := ss[comm.MailboxDepth]
				return v.err(VerifyDeadlock, src, ev.site, "%d eager sends to rank %d exceed the mailbox depth %d; sends could block", len(ss), dst, comm.MailboxDepth)
			}
			for k := range ss {
				if ss[k].tag != rr[k].tag {
					return v.err(VerifyMatching, dst, rr[k].site, "recv expects tag %d from rank %d, matching send carries tag %d", rr[k].tag, src, ss[k].tag)
				}
				if ss[k].rows != rr[k].rows {
					return v.err(VerifyMatching, dst, rr[k].site, "recv expects %d rows from rank %d, matching send carries %d", rr[k].rows, src, ss[k].rows)
				}
			}
		}
	}
	return nil
}

// checkCollectives proves complete, consistent group participation: every
// member enters each occurrence of each group the same number of times, with
// the same operation, and with consistent roots and payload shapes.
func (v *verifier) checkCollectives() error {
	p := v.p
	for _, g := range v.groups {
		s := v.seqs[g]
		// Participation: all members enter the same number of occurrences.
		c0 := len(s.perMember[0])
		for i := 1; i < g.Size(); i++ {
			if len(s.perMember[i]) != c0 {
				rank := g.Member(i)
				site := -1
				if len(s.perMember[i]) > 0 {
					site = s.perMember[i][len(s.perMember[i])-1].site
				}
				return v.err(VerifyMatching, rank, site, "group participation: member rank %d enters %d collectives, member rank %d enters %d",
					rank, len(s.perMember[i]), g.Member(0), c0)
			}
		}
		for t := 0; t < c0; t++ {
			e0 := s.perMember[0][t]
			in0 := &p.progs[e0.rank][e0.site]
			for i := 1; i < g.Size(); i++ {
				ei := s.perMember[i][t]
				ini := &p.progs[ei.rank][ei.site]
				if ini.op != in0.op {
					return v.err(VerifyMatching, ei.rank, ei.site, "collective occurrence %d: rank %d runs %s, rank %d runs %s", t, ei.rank, ini.op, e0.rank, in0.op)
				}
				switch in0.op {
				case opBcastMul:
					if ini.root != in0.root {
						return v.err(VerifyMatching, ei.rank, ei.site, "bcast occurrence %d: root %d vs rank %d's root %d", t, ini.root, e0.rank, in0.root)
					}
					if ini.rows != in0.rows {
						return v.err(VerifyMatching, ei.rank, ei.site, "bcast occurrence %d: payload of %d rows vs rank %d's %d", t, ini.rows, e0.rank, in0.rows)
					}
				case opAllReduce:
					if p.outRows[ei.rank] != p.outRows[e0.rank] {
						return v.err(VerifyMatching, ei.rank, ei.site, "all-reduce occurrence %d: vector of %d rows vs rank %d's %d",
							t, p.outRows[ei.rank], e0.rank, p.outRows[e0.rank])
					}
				}
			}
			if in0.op == opAllToAllv {
				// Cross-consistency: what member b packs for member a must be
				// exactly what a expects to land from b.
				for a := 0; a < g.Size(); a++ {
					ea := s.perMember[a][t]
					ina := &p.progs[ea.rank][ea.site]
					for b := 0; b < g.Size(); b++ {
						if b == a {
							continue
						}
						eb := s.perMember[b][t]
						inb := &p.progs[eb.rank][eb.site]
						if ina.recvRows[b] != len(inb.sendIdx[a]) {
							return v.err(VerifyMatching, ea.rank, ea.site, "all-to-allv occurrence %d: rank %d expects %d rows from rank %d, which packs %d",
								t, ea.rank, ina.recvRows[b], eb.rank, len(inb.sendIdx[a]))
						}
					}
				}
			}
		}
	}
	return nil
}

// checkDeadlock builds the cross-rank happens-before graph — program-order
// edges per rank, send→recv edges for matched p2p messages, one shared
// synchronization node per collective occurrence — and rejects cycles. A
// cycle means some set of ranks each wait on an event another of them has
// not reached: the schedule would hang the executor.
func (v *verifier) checkDeadlock() error {
	p := v.p
	// Node assignment. Collective occurrences share one node across members;
	// p2p sends and recvs get one node each.
	nodeOf := make(map[[2]int]int) // (rank,site) → node
	type label struct{ rank, site int }
	var labels []label
	newNode := func(rank, site int) int {
		id := len(labels)
		labels = append(labels, label{rank, site})
		return id
	}
	for _, g := range v.groups {
		s := v.seqs[g]
		for t := 0; t < len(s.perMember[0]); t++ {
			id := newNode(s.perMember[0][t].rank, s.perMember[0][t].site)
			for i := 0; i < g.Size(); i++ {
				e := s.perMember[i][t]
				nodeOf[[2]int{e.rank, e.site}] = id
			}
		}
	}
	for rank := 0; rank < v.n; rank++ {
		prog := p.progs[rank]
		for site := range prog {
			switch prog[site].op {
			case opSendRows, opRecvMul:
				nodeOf[[2]int{rank, site}] = newNode(rank, site)
			}
		}
	}
	adj := make([][]int, len(labels))
	addEdge := func(a, b int) {
		if a != b {
			adj[a] = append(adj[a], b)
		}
	}
	// Program order: each rank reaches its comm events sequentially.
	for rank := 0; rank < v.n; rank++ {
		prog := p.progs[rank]
		prev := -1
		for site := range prog {
			id, ok := nodeOf[[2]int{rank, site}]
			if !ok {
				continue // compute/accounting sites impose no cross-rank waits
			}
			if prev >= 0 {
				addEdge(prev, id)
			}
			prev = id
		}
	}
	// Message order: the k-th recv on a pair waits for the k-th send.
	for src := 0; src < v.n; src++ {
		for dst := 0; dst < v.n; dst++ {
			key := [2]int{src, dst}
			ss, rr := v.sends[key], v.recvs[key]
			for k := range ss {
				addEdge(nodeOf[[2]int{src, ss[k].site}], nodeOf[[2]int{dst, rr[k].site}])
			}
		}
	}
	// Iterative DFS cycle detection (0 unvisited, 1 on stack, 2 done).
	state := make([]int8, len(labels))
	parent := make([]int, len(labels))
	for start := range adj {
		if state[start] != 0 {
			continue
		}
		stack := []int{start}
		parent[start] = -1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if state[u] == 0 {
				state[u] = 1
			} else {
				state[u] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			for _, w := range adj[u] {
				switch state[w] {
				case 0:
					parent[w] = u
					stack = append(stack, w)
				case 1:
					// Back edge u→w closes a cycle w → ... → u → w.
					var cyc []label
					for x := u; x != -1 && len(cyc) < 8; x = parent[x] {
						cyc = append(cyc, labels[x])
						if x == w {
							break
						}
					}
					sort.Slice(cyc, func(a, b int) bool {
						if cyc[a].rank != cyc[b].rank {
							return cyc[a].rank < cyc[b].rank
						}
						return cyc[a].site < cyc[b].site
					})
					var b strings.Builder
					for i, l := range cyc {
						if i > 0 {
							b.WriteString(", ")
						}
						fmt.Fprintf(&b, "rank %d instr %d", l.rank, l.site)
					}
					return v.err(VerifyDeadlock, labels[w].rank, labels[w].site, "happens-before cycle through {%s}: these ranks would wait on each other forever", b.String())
				}
			}
		}
	}
	return nil
}

// overlapCommOp reports whether op may appear in a pipeline stage's comm
// list: the landing operations plus the non-blocking sends and their
// accounting. None of these read the accumulator, so issuing stage s+1's
// comm before stage s's compute respects every true data dependency.
func overlapCommOp(op opcode) bool {
	return landingOp(op) || op == opSendRows || op == opChargePack
}

// overlapCompOp reports whether op may appear in a pipeline stage's comp
// list.
func overlapCompOp(op opcode) bool {
	switch op {
	case opBcastMul, opRecvMul, opMulOwn, opMulRecvSlot, opChargeUnpack:
		return true
	}
	return false
}

// checkOverlap validates the pipelined stage decomposition the ExecOverlap
// executor actually runs (the cached pipelineFor derivation): every
// instruction covered exactly once in its role, at most one landing per
// double-buffer stage, landings consumed in the stage that staged them (the
// parity half a transfer lands in is never read while a later stage's
// transfer is in flight), compute in program order, and all-reduces only in
// the epilogue.
func (v *verifier) checkOverlap() error {
	p := v.p
	for rank := 0; rank < v.n; rank++ {
		prog := p.progs[rank]
		pp := p.pipelineFor(rank)
		const (
			commCovered = 1 << iota
			compCovered
			epiCovered
		)
		covered := make([]uint8, len(prog))
		prevComp := -1
		for s := range pp.stages {
			st := &pp.stages[s]
			landSite := -1
			prevComm := -1
			for _, i := range st.comm {
				if i < 0 || i >= len(prog) {
					return v.err(VerifyOverlap, rank, -1, "stage %d comm references instr %d outside the %d-instruction program", s, i, len(prog))
				}
				in := &prog[i]
				if !overlapCommOp(in.op) {
					return v.err(VerifyOverlap, rank, i, "%s scheduled as stage %d communication", in.op, s)
				}
				if landingOp(in.op) {
					if landSite >= 0 {
						return v.err(VerifyOverlap, rank, i, "stage %d lands two transfers (instr %d and %d) into one double-buffer parity", s, landSite, i)
					}
					landSite = i
				}
				if i <= prevComm {
					return v.err(VerifyOverlap, rank, i, "stage %d comm issue order breaks program order", s)
				}
				prevComm = i
				if covered[i]&commCovered != 0 {
					return v.err(VerifyOverlap, rank, i, "instr issued by two stages")
				}
				covered[i] |= commCovered
			}
			for _, i := range st.comp {
				if i < 0 || i >= len(prog) {
					return v.err(VerifyOverlap, rank, -1, "stage %d comp references instr %d outside the %d-instruction program", s, i, len(prog))
				}
				in := &prog[i]
				if !overlapCompOp(in.op) {
					return v.err(VerifyOverlap, rank, i, "%s scheduled as stage %d compute", in.op, s)
				}
				switch in.op {
				case opBcastMul, opRecvMul:
					if i != landSite {
						return v.err(VerifyOverlap, rank, i, "stage %d consumes a landing staged by a different stage: the parity buffer may still be in flight", s)
					}
				case opMulRecvSlot:
					if landSite < 0 || prog[landSite].op != opAllToAllv {
						return v.err(VerifyOverlap, rank, i, "stage %d consumes all-to-allv slot %d without that exchange landing in the stage", s, in.slot)
					}
					if in.slot < 0 || in.slot >= len(prog[landSite].recvRows) || prog[landSite].recvRows[in.slot] != in.rows {
						return v.err(VerifyOverlap, rank, i, "stage %d slot %d consumption does not match the stage's exchange landing", s, in.slot)
					}
				}
				if i <= prevComp {
					return v.err(VerifyOverlap, rank, i, "stage %d compute diverges from program order: overlapped accumulation would not be bit-identical", s)
				}
				prevComp = i
				if covered[i]&compCovered != 0 {
					return v.err(VerifyOverlap, rank, i, "instr computed by two stages")
				}
				covered[i] |= compCovered
			}
		}
		prevEpi := -1
		for _, i := range pp.epilogue {
			if i < 0 || i >= len(prog) {
				return v.err(VerifyOverlap, rank, -1, "epilogue references instr %d outside the %d-instruction program", i, len(prog))
			}
			if prog[i].op != opAllReduce {
				return v.err(VerifyOverlap, rank, i, "%s scheduled in the all-reduce epilogue", prog[i].op)
			}
			if i <= prevEpi {
				return v.err(VerifyOverlap, rank, i, "epilogue order breaks program order")
			}
			prevEpi = i
			if covered[i]&epiCovered != 0 {
				return v.err(VerifyOverlap, rank, i, "all-reduce folded twice")
			}
			covered[i] |= epiCovered
		}
		for site := range prog {
			var want uint8
			switch prog[site].op {
			case opBcastMul, opRecvMul:
				want = commCovered | compCovered
			case opAllToAllv, opSendRows, opChargePack:
				want = commCovered
			case opMulOwn, opMulRecvSlot, opChargeUnpack:
				want = compCovered
			case opAllReduce:
				want = epiCovered
			}
			if covered[site] != want {
				return v.err(VerifyOverlap, rank, site, "%s dropped from the pipeline decomposition (covered %03b, want %03b)", prog[site].op, covered[site], want)
			}
		}
	}
	return nil
}
