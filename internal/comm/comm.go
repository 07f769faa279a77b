// Package comm is the communicator under the distributed SpMM engines: one
// collective layer — broadcast (sparsity-oblivious 1D and 1.5D), all-to-allv
// (sparsity-aware 1D, and 1.5D over each process column) and all-reduce
// (1.5D partial sums, weight gradients) — written once over a
// small message transport with two implementations. NewWorld runs P ranks as
// goroutines in one process over in-process mailboxes (mailbox.go);
// NewWorldTCP runs one rank per OS process over framed TCP connections
// (transport.go). Both queue into one unbounded inbox type, so a send never
// blocks on either.
// Either way real data moves between ranks, exact per-rank volumes are
// measured, and modeled α–β time is charged to a machine.Ledger, so results,
// volume counters and ledgers are bit-identical across the two transports.
// It substitutes for the paper's NCCL/torch.distributed stack.
//
// Point-to-point Send/RecvInto carry no engine's traffic: no compiled plan
// sends point to point. Calibration's ping-pong (Calibrate) and the
// benchmark's ping rung do.
//
// Every collective is explicit messages on the collective lane: the members
// exchange pooled payloads pairwise, reductions fold contributions in group
// member order, and a distinct tag per collective kind turns a misordered
// stream into ErrTagMismatch. All members must enter a group's collectives
// in the same order with at most one in flight per rank — MPI semantics —
// which makes per-pair FIFO delivery a sufficient match discipline.
//
// # Time accounting convention: the sender pays
//
// Point-to-point α–β time is charged entirely to the sending rank at send
// time (Send/SendOwned take the phase to charge); the matching
// RecvInto/TryRecvInto only waits and records receive volume, charging
// nothing. This models the eager, non-blocking Isend the paper's NCCL
// grouped send/recv uses: injection cost is paid once on the wire, and a
// receiver that is late to post its receive shows up as idle time, not as
// double-counted transfer time. Collectives charge every participant their
// modeled share (each member of a broadcast, all-reduce, or all-to-allv
// calls with the phase to charge), because all members drive the
// collective's algorithm. The charge is the model's (a broadcast is priced
// as a pipelined tree, an all-reduce as a ring) whatever messages the
// transport actually moves.
//
// # Failure model
//
// The world has a failure-aware execution mode (see fault.go): faults can be
// injected at named points in a rank's operation stream, any failure aborts
// the whole collective deterministically (every blocked receive unwinds
// instead of deadlocking), and RunErr/RunCtx/RunTimeout return a
// typed *RankError. Shape misuse (a mis-sized destination, a self-send) is a
// caller bug and panics; on a rank goroutine the launcher reports that panic
// as the run's *RankError too.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sagnn/internal/machine"
)

// message is a tagged float payload in flight; floats is a pooled buffer the
// receiver recycles.
type message struct {
	tag    int
	floats []float64
}

// World owns the ranks, transport, and accounting for one job.
type World struct {
	P      int
	Params machine.Params
	Ledger *machine.Ledger
	stats  *Stats
	world  *Group
	pool   bufPool

	// tr moves messages between ranks: in-process mailboxes for NewWorld,
	// the framed wire for NewWorldTCP, which also sets net for the wire's
	// lifecycle (rendezvous, abort announcement, Close). hosted lists the
	// world ranks running inside this process (every rank in process,
	// exactly one over TCP): Run variants spawn goroutines only for hosted
	// ranks.
	tr     transport
	net    *netWorld
	hosted []int

	// degrade holds per-rank comm-time multipliers (fault-priced time).
	degrade *machine.Degradation

	// ops counts communication operations per rank within the current Run;
	// fault sites are addressed in this coordinate. Only the rank's own
	// goroutine advances its counter, but Ops may read it from any
	// goroutine, a Run in flight included, hence atomics.
	ops []atomic.Int64

	// Abort protocol state: the first failure records its cause and closes
	// the abort channel every blocking primitive selects on; lost is the
	// first lost TCP peer's failure, which no reset clears. See fault.go.
	abortMu  sync.Mutex
	abortErr error
	lost     error
	abortCh  atomic.Pointer[abortState]

	faultMu    sync.Mutex
	faults     []Fault
	haveFaults atomic.Bool
}

// NewWorld creates a world of p ranks with the given machine parameters,
// all hosted in this process and exchanging messages through in-process
// mailboxes. Panics on a non-positive p: a construction-time misuse, not a
// runtime failure.
func NewWorld(p int, params machine.Params) *World {
	if p <= 0 {
		panic(fmt.Sprintf("comm: world size %d", p))
	}
	w := newWorld(p, params)
	w.tr = newMailboxes(w)
	return w
}

// newWorld builds the transport-independent state of a p-rank world, every
// rank hosted; the constructor installs the transport.
func newWorld(p int, params machine.Params) *World {
	w := &World{
		P:       p,
		Params:  params,
		Ledger:  machine.NewLedger(p),
		stats:   newStats(p),
		pool:    newBufPool(),
		degrade: machine.NewDegradation(p),
		ops:     make([]atomic.Int64, p),
	}
	w.abortCh.Store(&abortState{ch: make(chan struct{})})
	w.hosted = make([]int, p)
	members := make([]int, p)
	for i := range members {
		w.hosted[i] = i
		members[i] = i
	}
	w.world = w.NewGroup(members)
	return w
}

// Stats returns the world's volume counters.
func (w *World) Stats() *Stats { return w.stats }

// WorldGroup returns the group containing every rank.
func (w *World) WorldGroup() *Group { return w.world }

// NewGroup creates a communicator group over the given world ranks. Panics
// on out-of-range or duplicate members: construction-time misuse.
func (w *World) NewGroup(members []int) *Group {
	idx := make(map[int]int, len(members))
	for i, m := range members {
		if m < 0 || m >= w.P {
			panic(fmt.Sprintf("comm: group member %d outside world of %d", m, w.P))
		}
		if _, dup := idx[m]; dup {
			panic(fmt.Sprintf("comm: duplicate group member %d", m))
		}
		idx[m] = i
	}
	return &Group{w: w, members: append([]int(nil), members...), idx: idx}
}

// Run executes fn once per rank, each in its own goroutine, and blocks
// until all return. Any failure is re-raised as a panic on the caller with
// its rank attached; failure-aware callers use RunErr, RunCtx, or
// RunTimeout, which return the *RankError instead.
func (w *World) Run(fn func(r *Rank)) {
	if err := w.RunErr(func(r *Rank) error { fn(r); return nil }); err != nil {
		panic(err.Error())
	}
}

// Rank is one process's handle on the world.
type Rank struct {
	w  *World
	ID int
}

// World returns the rank's world.
func (r *Rank) World() *World { return r.w }

// P returns the world size.
func (r *Rank) P() int { return r.w.P }

// chargeComm credits modeled communication seconds to this rank in the
// given phase. The rank's current degradation factor (slow-link faults,
// SlowRank) scales the charge, so a degraded link is priced where a real
// one would be. Compute charges are never scaled.
func (r *Rank) chargeComm(phase string, sec float64) {
	r.w.Ledger.Add(r.ID, phase, sec*r.w.degrade.Factor(r.ID))
}

// ChargeCompute credits modeled local-computation seconds (SpMM, GEMM,
// packing) to this rank. Algorithms call this with machine.Params-derived
// times.
func (r *Rank) ChargeCompute(phase string, sec float64) { r.w.Ledger.Add(r.ID, phase, sec) }

// Send delivers a tagged float payload to dst. Models an eager/buffered
// send: it never blocks (the mailboxes queue at the receiver, the wire
// writes what the socket takes and queues the rest, both without bound),
// matching the paper's use of non-blocking Isend. Self-sends panic: local
// data needs no transport.
//
// The caller keeps ownership of floats — the transport copies it, or writes
// it and copies what it could not write, before Send returns.
func (r *Rank) Send(dst, tag int, floats []float64, phase string) {
	r.send(dst, tag, floats, false, phase)
}

// send is the shared point-to-point body; a self-send panics.
func (r *Rank) send(dst, tag int, floats []float64, owned bool, phase string) {
	if dst == r.ID {
		panic("comm: self-send not supported; use local data directly")
	}
	r.opPoint()
	r.w.tr.send(r.ID, dst, laneP2P, tag, floats, owned)
	n := int64(len(floats)) * machine.BytesPerElem
	r.w.stats.addSend(r.ID, n, 1)
	r.chargeComm(phase, r.w.Params.P2PTime(n))
}

// TryRecvInto blocks for the next message from src, copies its payload into
// dst, and recycles the transport buffer — with a persistent workspace, the
// zero-allocation receive. A tag mismatch returns ErrTagMismatch (the
// protocols in this repository are deterministic, so a mismatch is a bug,
// not a race); a payload whose length differs from dst returns
// ErrSizeMismatch. No time is charged: the sender already paid the message's
// full α–β cost (see the package comment).
func (r *Rank) TryRecvInto(src, tag int, dst []float64) error {
	r.opPoint()
	m := r.w.tr.recv(r.ID, src, laneP2P)
	if m.tag != tag {
		r.w.pool.put(m.floats)
		return fmt.Errorf("%w: rank %d expected tag %d from %d, got %d", ErrTagMismatch, r.ID, tag, src, m.tag)
	}
	if len(m.floats) != len(dst) {
		r.w.pool.put(m.floats)
		return fmt.Errorf("%w: rank %d RecvInto dst len %d, payload len %d", ErrSizeMismatch, r.ID, len(dst), len(m.floats))
	}
	copy(dst, m.floats)
	r.w.stats.addRecv(r.ID, int64(len(m.floats))*machine.BytesPerElem)
	r.w.pool.put(m.floats)
	return nil
}
