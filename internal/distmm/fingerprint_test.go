package distmm

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// fingerprinter hashes a compiled plan field by field. Every value is
// length-prefixed or fixed-width, so two plans hash alike only if their
// metadata and every rank's instruction stream agree entry for entry.
type fingerprinter struct {
	h   hash.Hash64
	buf [8]byte
}

func (f *fingerprinter) word(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fingerprinter) int(v int) { f.word(uint64(int64(v))) }

func (f *fingerprinter) ints(vs []int) {
	f.int(len(vs))
	for _, v := range vs {
		f.int(v)
	}
}

func (f *fingerprinter) bool(b bool) {
	if b {
		f.int(1)
	} else {
		f.int(0)
	}
}

func (f *fingerprinter) group(g *comm.Group) {
	if g == nil {
		f.int(-1)
		return
	}
	f.ints(members(g))
}

func (f *fingerprinter) csr(m *sparse.CSR) {
	if m == nil {
		f.int(-1)
		return
	}
	f.int(m.NumRows)
	f.int(m.NumCols)
	f.ints(m.RowPtr)
	f.ints(m.ColIdx)
	f.int(len(m.Val))
	for _, v := range m.Val {
		f.word(math.Float64bits(v))
	}
}

// recordedOps numbers each opcode as the IR did when the goldens were
// recorded. That IR also had five opcodes it no longer has: a multiply site
// per non-empty peer slot after a sweep (3), the unpack charge closing them
// (4), and the point-to-point stages of the sparsity-aware 1.5D engine
// (5–7), which compiles to an exchange and a sweep now.
var recordedOps = map[opcode]int{
	opBcastMul:  0,
	opAllToAllv: 1,
	opMulOwn:    2,
	opAllReduce: 8,
}

const recordedMulRecvSlot, recordedChargeUnpack = 3, 4

// recordedInstr is one instruction in the form the goldens were recorded
// from: its opcode number and its operands.
type recordedInstr struct {
	op int
	in instr
}

// recordedForm rewrites a program into the form the goldens were recorded
// from: after each sweep, one slot site per non-empty peer slot j of the
// exchange before it, with rows at[j+1]−at[j], slot j and the merged
// operand's columns [at[j], at[j+1]) shifted by −at[j] as its block (the
// compact block bit for bit: the merged operand keeps each block's entries
// of a row contiguous and in order), and then the unpack charge.
func recordedForm(prog []instr) []recordedInstr {
	out := make([]recordedInstr, 0, len(prog))
	var exch *instr
	for i := range prog {
		in := &prog[i]
		out = append(out, recordedInstr{recordedOps[in.op], *in})
		switch {
		case in.op == opAllToAllv:
			exch = in
		case in.op == opMulOwn && exch != nil:
			h := exch.halo
			for j := 0; j+1 < len(exch.at); j++ {
				lo, hi := exch.at[j], exch.at[j+1]
				if lo == hi {
					continue
				}
				blk := h.ExtractBlock(sparse.ColRange{Lo: 0, Hi: h.NumRows}, sparse.ColRange{Lo: lo, Hi: hi})
				out = append(out, recordedInstr{recordedMulRecvSlot, instr{rows: hi - lo, slot: j, blk: blk}})
			}
			out = append(out, recordedInstr{recordedChargeUnpack, instr{}})
		}
	}
	return out
}

// planFingerprint hashes a plan's metadata (name, replication, partial-sum
// shape, layout, per-rank block, heights and gradient group) and every
// rank's instructions in their recorded form: op, group members, root, own,
// peer, tag, rows, slot, idx, sendIdx, recvRows and the SpMM block's
// RowPtr/ColIdx/value bits. The point-to-point operands (peer, tag, idx)
// are gone from the IR; they hash as the zero values every recorded
// instruction without them carried.
func planFingerprint(p *Plan) uint64 {
	f := &fingerprinter{h: fnv.New64a()}
	f.int(len(p.name))
	f.h.Write([]byte(p.name))
	f.int(p.replication)
	f.bool(p.partial)
	f.ints(p.layout.Offsets)
	f.ints(p.blockOf)
	f.ints(p.outRows)
	if p.inRows == nil {
		f.int(-1)
	} else {
		f.ints(p.inRows)
	}
	for _, g := range p.gradGroups {
		f.group(g)
	}
	f.int(len(p.progs))
	for _, prog := range p.progs {
		rec := recordedForm(prog)
		f.int(len(rec))
		for _, r := range rec {
			in := &r.in
			f.int(r.op)
			f.group(in.group)
			f.int(in.root)
			f.bool(in.own)
			f.int(0) // peer
			f.int(0) // tag
			f.int(in.rows)
			f.int(in.slot)
			f.ints(nil) // idx
			f.int(len(in.sendIdx))
			for _, idx := range in.sendIdx {
				f.ints(idx)
			}
			f.ints(in.recvRows)
			f.csr(in.blk)
		}
	}
	return f.h.Sum64()
}

// skewedLayout splits n rows into k blocks of quadratically growing size,
// so small P gets uneven blocks and P = 16 an empty first block.
func skewedLayout(n, k int) Layout {
	offsets := make([]int, k+1)
	for i := range offsets {
		offsets[i] = n * i * i / (k * k)
	}
	return LayoutFromOffsets(offsets)
}

// fingerprintPlans compiles every plan the golden covers: each feasible
// (engine, P, c) for P ∈ {4, 8, 16} and c ∈ {1, 2, 4} on two graphs (an
// Erdős–Rényi graph on a uniform layout, a stochastic block model on a
// skewed one), plus two rounds of randomFrontiers gathers per P and graph.
func fingerprintPlans(t *testing.T) map[string]*Plan {
	t.Helper()
	sbm, _ := gen.SBM(160, 4, 6, 2, 5)
	graphs := []struct {
		name   string
		a      *sparse.CSR
		layout func(k int) Layout
	}{
		{"er96", randomSym(1234, 96, 5), func(k int) Layout { return UniformLayout(96, k) }},
		{"sbm160", sbm.NormalizedAdjacency(), func(k int) Layout { return skewedLayout(160, k) }},
	}
	plans := make(map[string]*Plan)
	for _, g := range graphs {
		for _, p := range []int{4, 8, 16} {
			for _, name := range []string{"oblivious-1d", "sparsity-aware-1d", "oblivious-1.5d", "sparsity-aware-1.5d"} {
				for _, c := range []int{1, 2, 4} {
					oneD := name == "oblivious-1d" || name == "sparsity-aware-1d"
					if (oneD && c != 1) || p%c != 0 || (p/c)%c != 0 {
						continue
					}
					e, err := NewEngine(comm.NewWorld(p, machine.Perlmutter()), name, c, g.a, g.layout(p/c))
					if err != nil {
						t.Fatal(err)
					}
					plans[fmt.Sprintf("%s/p=%d/%s/c=%d", g.name, p, name, c)] = e.Plan()
				}
			}
			rng := rand.New(rand.NewSource(int64(p)))
			for round := 0; round < 2; round++ {
				w := comm.NewWorld(p, machine.Perlmutter())
				gather := NewSampledGather(w, randomFrontiers(rng, p, g.a.NumRows), g.layout(p))
				plans[fmt.Sprintf("%s/p=%d/sampled-gather/round=%d", g.name, p, round)] = gather.Plan()
			}
		}
	}
	return plans
}

// goldenFingerprints were recorded before the full-batch and sampled
// Algorithm 1 compilers were merged, and the sparsity-aware 1.5D entries
// again when that engine became Algorithm 1 over each process column: a
// compiler change that moves any plan entry — an index, a block value's
// bits, an instruction's order — fails here.
var goldenFingerprints = map[string]uint64{
	"er96/p=16/oblivious-1.5d/c=1":        0xab62577c71efa521,
	"er96/p=16/oblivious-1.5d/c=2":        0xef02515f06e582fd,
	"er96/p=16/oblivious-1.5d/c=4":        0xcdeb465ed7aa8557,
	"er96/p=16/oblivious-1d/c=1":          0x93b998d15a670f78,
	"er96/p=16/sampled-gather/round=0":    0xe5de8d2353ea2c57,
	"er96/p=16/sampled-gather/round=1":    0xb7da7e875f77fac,
	"er96/p=16/sparsity-aware-1.5d/c=1":   0x990262cb5b0c866e,
	"er96/p=16/sparsity-aware-1.5d/c=2":   0x9fc6d6c95d79ad38,
	"er96/p=16/sparsity-aware-1.5d/c=4":   0x8f07a8a431e91933,
	"er96/p=16/sparsity-aware-1d/c=1":     0x7a2837649bd8e50d,
	"er96/p=4/oblivious-1.5d/c=1":         0x56040f8595be8c47,
	"er96/p=4/oblivious-1.5d/c=2":         0x58318e707e269bd1,
	"er96/p=4/oblivious-1d/c=1":           0x878cdde9a79d1266,
	"er96/p=4/sampled-gather/round=0":     0x7305f420c619edda,
	"er96/p=4/sampled-gather/round=1":     0x23ff28d26d0fb64e,
	"er96/p=4/sparsity-aware-1.5d/c=1":    0x91d1aded20ca4627,
	"er96/p=4/sparsity-aware-1.5d/c=2":    0x5e79ba8e47e28c4,
	"er96/p=4/sparsity-aware-1d/c=1":      0x3a52ff3a6a2dd58,
	"er96/p=8/oblivious-1.5d/c=1":         0x53cd6b121bf3fe7d,
	"er96/p=8/oblivious-1.5d/c=2":         0xd10a7760d09d573,
	"er96/p=8/oblivious-1d/c=1":           0x6955d253b457aecc,
	"er96/p=8/sampled-gather/round=0":     0x981a637158016210,
	"er96/p=8/sampled-gather/round=1":     0xba80a753bb3a4d97,
	"er96/p=8/sparsity-aware-1.5d/c=1":    0x84d5eb86dea34df0,
	"er96/p=8/sparsity-aware-1.5d/c=2":    0x4a17296aeb3abcf,
	"er96/p=8/sparsity-aware-1d/c=1":      0x2470a87a6aad2d67,
	"sbm160/p=16/oblivious-1.5d/c=1":      0x10ff07e8f26b688,
	"sbm160/p=16/oblivious-1.5d/c=2":      0x1a892049b7541e31,
	"sbm160/p=16/oblivious-1.5d/c=4":      0x5e90c94b90bba0c,
	"sbm160/p=16/oblivious-1d/c=1":        0xb8daaab7a9cc13d5,
	"sbm160/p=16/sampled-gather/round=0":  0x39d1a3b17db1a314,
	"sbm160/p=16/sampled-gather/round=1":  0x4fd35b5cd5064f7c,
	"sbm160/p=16/sparsity-aware-1.5d/c=1": 0xbe80b6716d330ae2,
	"sbm160/p=16/sparsity-aware-1.5d/c=2": 0x443f7aae8c05c22d,
	"sbm160/p=16/sparsity-aware-1.5d/c=4": 0x337b445834562a92,
	"sbm160/p=16/sparsity-aware-1d/c=1":   0x44982c9e69b509bd,
	"sbm160/p=4/oblivious-1.5d/c=1":       0x3bc780768bd5c938,
	"sbm160/p=4/oblivious-1.5d/c=2":       0x3ab93a3de2e6eda8,
	"sbm160/p=4/oblivious-1d/c=1":         0x66bf37685cf5a5e9,
	"sbm160/p=4/sampled-gather/round=0":   0x78cf219619110df4,
	"sbm160/p=4/sampled-gather/round=1":   0x1ad777b96785f7af,
	"sbm160/p=4/sparsity-aware-1.5d/c=1":  0x8a087b1ee7020e3a,
	"sbm160/p=4/sparsity-aware-1.5d/c=2":  0x8a0654fccf175c00,
	"sbm160/p=4/sparsity-aware-1d/c=1":    0xdbd9d19e1a46991d,
	"sbm160/p=8/oblivious-1.5d/c=1":       0x4bf57928b36719b9,
	"sbm160/p=8/oblivious-1.5d/c=2":       0x55d6d7c514eaa9ac,
	"sbm160/p=8/oblivious-1d/c=1":         0x6c60ff04985e54fc,
	"sbm160/p=8/sampled-gather/round=0":   0x12a0ff248fdb66bc,
	"sbm160/p=8/sampled-gather/round=1":   0xcb521d1ef8edba1b,
	"sbm160/p=8/sparsity-aware-1.5d/c=1":  0xf1d7b1f01598aa6d,
	"sbm160/p=8/sparsity-aware-1.5d/c=2":  0x62a0ac94b3aab00a,
	"sbm160/p=8/sparsity-aware-1d/c=1":    0x7b5f143c8a3e0f06,
}

// TestPlanFingerprintGolden pins every compiled plan's instruction stream to
// the golden record, and checks that the fingerprint sees a one-entry change.
func TestPlanFingerprintGolden(t *testing.T) {
	plans := fingerprintPlans(t)
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := planFingerprint(plans[name])
		want, ok := goldenFingerprints[name]
		if !ok || got != want {
			t.Errorf("%s: fingerprint %#x, golden %#x (recorded: %v)", name, got, want, ok)
		}
	}
	if len(plans) != len(goldenFingerprints) {
		t.Errorf("%d plans, %d golden fingerprints", len(plans), len(goldenFingerprints))
	}

	// One-entry mutations: the last bit of a diagonal block's value and of
	// a merged operand's, one pack index.
	pl := plans["er96/p=4/sparsity-aware-1d/c=1"]
	base := planFingerprint(pl)
	for _, blk := range []*sparse.CSR{pl.progs[1][1].blk, pl.progs[1][0].halo} {
		blk.Val[0] = math.Float64frombits(math.Float64bits(blk.Val[0]) ^ 1)
		if planFingerprint(pl) == base {
			t.Fatal("fingerprint missed a one-bit change to a block value")
		}
		blk.Val[0] = math.Float64frombits(math.Float64bits(blk.Val[0]) ^ 1)
	}
	send := pl.progs[2][0].sendIdx[0]
	send[0]++
	if planFingerprint(pl) == base {
		t.Fatal("fingerprint missed a one-entry change to a pack index")
	}
	send[0]--
	if planFingerprint(pl) != base {
		t.Fatal("fingerprint is not a function of the plan")
	}
}
