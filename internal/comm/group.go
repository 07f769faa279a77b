package comm

import (
	"fmt"

	"sagnn/internal/machine"
)

// Group is a communicator over a subset of world ranks (a process row or
// column in the 1.5D grid, or the whole world). All collectives must be
// entered by every member, in the same order — MPI semantics. A Group holds
// no exchange state of its own: each collective is messages between the
// members on the collective lane.
type Group struct {
	w       *World
	members []int
	idx     map[int]int // world rank -> group index
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.members) }

// Member returns the world rank at group index i, without copying, so
// schedule walkers (the static plan verifier, the cost models) can resolve
// group shapes without allocating.
func (g *Group) Member(i int) int { return g.members[i] }

// Index returns worldRank's position within the group and whether it is a
// member — the non-panicking lookup static verification uses where IndexOf
// would enforce the runtime misuse contract.
func (g *Group) Index(worldRank int) (int, bool) {
	i, ok := g.idx[worldRank]
	return i, ok
}

// IndexOf returns r's position within the group; panics if not a member.
func (g *Group) IndexOf(r *Rank) int {
	i, ok := g.idx[r.ID]
	if !ok {
		panic(fmt.Sprintf("comm: rank %d not in group %v", r.ID, g.members))
	}
	return i
}

// sendColl sends data (borrowed) to group member i on the collective lane.
func (g *Group) sendColl(r *Rank, i, tag int, data []float64) {
	g.w.tr.send(r.ID, g.members[i], laneColl, tag, data, false)
}

// recvColl receives group member i's next collective-lane payload with the
// tag contract enforced: a mismatch means a corrupted or misordered stream,
// so it aborts the world with ErrTagMismatch and unwinds with the abortPanic
// panic. The caller recycles the returned buffer.
func (g *Group) recvColl(r *Rank, i, tag int) []float64 {
	m := g.w.tr.recv(r.ID, g.members[i], laneColl)
	if m.tag != tag {
		g.w.pool.put(m.floats)
		g.w.Abort(&RankError{Rank: r.ID, Err: fmt.Errorf("%w: collective lane expected tag %d from rank %d, got %d", ErrTagMismatch, tag, g.members[i], m.tag)})
		panic(abortPanic{})
	}
	return m.floats
}

// BcastFloatsInto broadcasts root's (group-index) payload into every
// member's dst, whose length must equal the payload length (shape misuse
// panics), and returns dst. The root sends to each other member; everyone is
// charged the modeled pipelined-tree broadcast, and the volume is one
// logical send at the root, one receive elsewhere.
func (g *Group) BcastFloatsInto(r *Rank, root int, data, dst []float64, phase string) []float64 {
	me := g.IndexOf(r)
	r.opPoint()
	src := data
	if me == root {
		g.w.tr.sendMany(r.ID, g.members, laneColl, tagBcast, data)
	} else {
		src = g.recvColl(r, root, tagBcast)
	}
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: bcast dst len %d, payload len %d", len(dst), len(src)))
	}
	copy(dst, src)
	nBytes := int64(len(src)) * machine.BytesPerElem
	if me == root {
		g.w.stats.addSend(r.ID, nBytes, 1)
	} else {
		g.w.pool.put(src)
		g.w.stats.addRecv(r.ID, nBytes)
	}
	r.chargeComm(phase, g.w.Params.BcastTime(nBytes, g.Size()))
	return dst
}

// AllReduceSumInto element-wise sums each member's vector into out on every
// member, folding contributions in group member order so the result is the
// same bits on every rank and every transport. out must have data's length
// and must not alias data (out is zeroed before the caller's own
// contribution is folded), and members' vectors must share a length; any
// misuse panics. Charged as a ring all-reduce.
func (g *Group) AllReduceSumInto(r *Rank, data, out []float64, phase string) {
	if len(out) != len(data) {
		panic(fmt.Sprintf("comm: allreduce out len %d, data len %d", len(out), len(data)))
	}
	if len(data) > 0 && &out[0] == &data[0] {
		panic("comm: AllReduceSumInto out must not alias data")
	}
	me := g.IndexOf(r)
	r.opPoint()
	g.w.tr.sendMany(r.ID, g.members, laneColl, tagAllReduce, data)
	for j := range out {
		out[j] = 0
	}
	for i := range g.members {
		v, wire := data, []float64(nil)
		if i != me {
			wire = g.recvColl(r, i, tagAllReduce)
			v = wire
		}
		if len(v) != len(data) {
			panic(fmt.Sprintf("comm: allreduce length mismatch %d vs %d", len(v), len(data)))
		}
		for j, x := range v {
			out[j] += x
		}
		g.w.pool.put(wire)
	}
	sent, recvd, msgs := AllReduceVolume(len(data), g.Size())
	g.w.stats.addSend(r.ID, sent, msgs)
	g.w.stats.addRecv(r.ID, recvd)
	r.chargeComm(phase, g.w.Params.AllReduceTime(int64(len(data))*machine.BytesPerElem, g.Size()))
}

// AllToAllvInto performs a personalized exchange: send[j] goes to group
// member j (empty buckets included, so every pair stays message-aligned) and
// member j's contribution lands in recv[j], which must have its length (zero
// for silent partners); shape misuse panics. Returns recv. Charged as
// grouped point-to-point traffic — one latency per communicating partner
// plus serialized send+recv bandwidth, the model the paper uses for NCCL's
// grouped ncclSend/ncclRecv all-to-all.
func (g *Group) AllToAllvInto(r *Rank, send, recv [][]float64, phase string) [][]float64 {
	if len(send) != g.Size() {
		panic(fmt.Sprintf("comm: alltoallv send has %d buckets for group of %d", len(send), g.Size()))
	}
	if len(recv) != g.Size() {
		panic(fmt.Sprintf("comm: alltoallv recv has %d buckets for group of %d", len(recv), g.Size()))
	}
	me := g.IndexOf(r)
	r.opPoint()
	for j := range g.members {
		if j != me {
			g.sendColl(r, j, tagAllToAllv, send[j])
		}
	}
	var sendElems, recvElems int64
	partners := 0
	for j := range g.members {
		theirs, wire := send[me], []float64(nil)
		if j != me {
			wire = g.recvColl(r, j, tagAllToAllv)
			theirs = wire
		}
		if len(recv[j]) != len(theirs) {
			panic(fmt.Sprintf("comm: alltoallv recv[%d] len %d, payload len %d", j, len(recv[j]), len(theirs)))
		}
		copy(recv[j], theirs)
		if j != me {
			recvElems += int64(len(theirs))
			sendElems += int64(len(send[j]))
			if len(theirs) > 0 || len(send[j]) > 0 {
				partners++
			}
		}
		g.w.pool.put(wire)
	}
	sendBytes := sendElems * machine.BytesPerElem
	recvBytes := recvElems * machine.BytesPerElem
	g.w.stats.addSend(r.ID, sendBytes, int64(partners))
	g.w.stats.addRecv(r.ID, recvBytes)
	r.chargeComm(phase, g.w.Params.AllToAllvTime(sendBytes, recvBytes, partners))
	return recv
}
