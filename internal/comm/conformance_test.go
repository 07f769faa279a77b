package comm

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"sagnn/internal/machine"
)

// The transport conformance suite: every primitive the collective layer
// offers runs once over in-process mailboxes and once over P loopback TCP
// worlds, and the two must agree on the payload bits every rank saw, the
// per-rank volume counters, the per-rank per-phase ledger charges, and the
// per-rank operation count (the coordinate fault sites are named in). The
// failure half pins, on both transports, that misuse is a typed error, that
// an abort mid-collective unblocks every rank in bounded time, and what a
// reset leaves behind.

var transports = []string{"sim", "tcp"}

// fleet hosts one job's ranks: a single in-process world, or one TCP world
// per rank connected over loopback.
type fleet struct {
	worlds []*World
}

func newFleet(t testing.TB, transport string, p int) *fleet {
	t.Helper()
	if transport == "sim" {
		return &fleet{worlds: []*World{NewWorld(p, machine.Perlmutter())}}
	}
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserving a loopback port: %v", err)
		}
		addrs[i], lns[i] = ln.Addr().String(), ln
	}
	for _, ln := range lns { // p distinct free ports; rendezvous rebinds them
		ln.Close()
	}
	f := &fleet{worlds: make([]*World, p)}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.worlds[i], errs[i] = NewWorldTCP(i, addrs, machine.Perlmutter())
		}(i)
	}
	wg.Wait()
	t.Cleanup(f.close)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d rendezvous: %v", i, err)
		}
	}
	return f
}

func (f *fleet) close() {
	var wg sync.WaitGroup
	for _, w := range f.worlds {
		if w != nil {
			wg.Add(1)
			go func(w *World) { defer wg.Done(); w.Close() }(w)
		}
	}
	wg.Wait()
}

// world returns the world hosting rank.
func (f *fleet) world(rank int) *World {
	if len(f.worlds) == 1 {
		return f.worlds[0]
	}
	return f.worlds[rank]
}

// run launches fn on every rank of every world at once and returns each
// world's RunTimeout result.
func (f *fleet) run(fn func(r *Rank) error) []error {
	errs := make([]error, len(f.worlds))
	var wg sync.WaitGroup
	for i, w := range f.worlds {
		wg.Add(1)
		go func(i int, w *World) {
			defer wg.Done()
			errs[i] = w.RunTimeout(chaosTimeout, fn)
		}(i, w)
	}
	wg.Wait()
	return errs
}

// observation is everything one conformance run exposes about itself.
type observation struct {
	got    [][]float64 // what each rank recorded, in program order
	sent   []int64
	recv   []int64
	msgs   []int64
	ops    []int64
	ledger map[string]float64 // per-rank phase → seconds
}

// ph names a ledger phase per rank, so a rank's own charge can be read back
// as the phase maximum on either transport.
func ph(r *Rank, name string) string { return name + "@" + strconv.Itoa(r.ID) }

func observe(t *testing.T, transport string, p int, prog func(r *Rank, rec func(...float64)) error) observation {
	t.Helper()
	f := newFleet(t, transport, p)
	o := observation{got: make([][]float64, p), ledger: map[string]float64{}}
	for i, err := range f.run(func(r *Rank) error {
		return prog(r, func(v ...float64) { o.got[r.ID] = append(o.got[r.ID], v...) })
	}) {
		if err != nil {
			t.Fatalf("%s world %d: %v", transport, i, err)
		}
	}
	for rank := 0; rank < p; rank++ {
		w := f.world(rank)
		o.sent = append(o.sent, w.Stats().BytesSent(rank))
		o.recv = append(o.recv, w.Stats().BytesRecv(rank))
		o.msgs = append(o.msgs, w.Stats().MsgsSent(rank))
		o.ops = append(o.ops, w.Ops(rank))
	}
	for _, w := range f.worlds {
		ledger := w.Ledger.Snapshot()
		for _, phase := range ledger.Phases() {
			o.ledger[phase] = ledger.PhaseMax(phase)
		}
	}
	return o
}

// grid returns r's row and column groups in a P = rows×c process grid, the
// communicators of the 1.5D algorithms.
func grid(r *Rank, c int) (row, col *Group) {
	w, p := r.World(), r.P()
	i, j := r.ID/c, r.ID%c
	rowM, colM := make([]int, c), make([]int, p/c)
	for k := range rowM {
		rowM[k] = i*c + k
	}
	for k := range colM {
		colM[k] = k*c + j
	}
	return w.NewGroup(rowM), w.NewGroup(colM)
}

func TestTransportConformance(t *testing.T) {
	cases := []struct {
		name string
		p    int
		prog func(r *Rank, rec func(...float64)) error
	}{
		{"p2p-copy", 2, func(r *Rank, rec func(...float64)) error {
			if r.ID == 0 {
				buf := []float64{42, math.Pi, -0.0}
				r.Send(1, 7, buf, ph(r, "p2p"))
				buf[0] = -1 // the receiver must still see 42: Send lends, never shares
				r.Send(1, 8, nil, ph(r, "p2p"))
				return nil
			}
			dst := make([]float64, 3)
			r.RecvInto(0, 7, dst)
			rec(dst...)
			return r.TryRecvInto(0, 8, nil)
		}},
		{"p2p-owned", 2, func(r *Rank, rec func(...float64)) error {
			if r.ID == 0 {
				buf := r.GetFloats(3)
				buf[0], buf[1], buf[2] = 1, 2, 3
				r.SendOwned(1, 9, buf, ph(r, "p2p"))
				r.SendOwned(1, 10, nil, ph(r, "p2p")) // a silent stage partner's empty message
				return nil
			}
			dst := []float64{-1, -1, -1}
			r.RecvInto(0, 9, dst)
			r.RecvInto(0, 10, nil)
			rec(dst...)
			return nil
		}},
		{"bcast-every-root", 4, func(r *Rank, rec func(...float64)) error {
			g := r.World().WorldGroup()
			for root := 0; root < r.P(); root++ {
				var data []float64
				if r.ID == root {
					data = []float64{float64(root), 3.14, 2.71}
				}
				dst := make([]float64, 3)
				g.BcastFloatsInto(r, root, data, dst, ph(r, "bcast"))
				if dst[0] != float64(root) || dst[2] != 2.71 {
					return fmt.Errorf("rank %d: bcast from %d landed %v", r.ID, root, dst)
				}
				rec(dst...)
			}
			return nil
		}},
		{"allreduce", 4, func(r *Rank, rec func(...float64)) error {
			// Magnitudes chosen so the fold order shows in the bits: only
			// the member-order sum ((1e16 + 1) − 1e16) + 1 gives exactly 1.
			in := []float64{[]float64{1e16, 1, -1e16, 1}[r.ID], float64(r.ID)}
			out := make([]float64, 2)
			r.World().WorldGroup().AllReduceSumInto(r, in, out, ph(r, "allreduce"))
			if out[0] != 1 || out[1] != 6 {
				return fmt.Errorf("rank %d: allreduce %v, want [1 6]", r.ID, out)
			}
			rec(out...)
			return nil
		}},
		{"alltoallv-empty-buckets", 4, func(r *Rank, rec func(...float64)) error {
			g, p := r.World().WorldGroup(), r.P()
			// Round 0 is entirely empty; round 1 sends j copies of my id to
			// rank j, so rank 0's buckets stay empty throughout.
			for round := 0; round < 2; round++ {
				send, recv := make([][]float64, p), make([][]float64, p)
				for j := 0; j < p; j++ {
					send[j] = make([]float64, j*round)
					for k := range send[j] {
						send[j][k] = float64(r.ID)
					}
					recv[j] = make([]float64, r.ID*round)
				}
				g.AllToAllvInto(r, send, recv, ph(r, "alltoall"))
				for j := 0; j < p; j++ {
					for _, v := range recv[j] {
						if v != float64(j) {
							return fmt.Errorf("rank %d: bucket %d holds %v", r.ID, j, recv[j])
						}
					}
					rec(recv[j]...)
				}
			}
			return nil
		}},
		{"grid-1.5d", 4, func(r *Rank, rec func(...float64)) error {
			const c = 2
			row, col := grid(r, c)
			i, j := r.ID/c, r.ID%c
			for round := 0; round < 6; round++ {
				root := round % col.Size()
				var data []float64
				if i == root {
					data = []float64{float64(root*100 + j)}
				}
				dst := make([]float64, 1)
				col.BcastFloatsInto(r, root, data, dst, ph(r, "bcast"))
				if dst[0] != float64(root*100+j) {
					return fmt.Errorf("rank %d: column bcast crossed groups: %v", r.ID, dst)
				}
				sum := make([]float64, 1)
				row.AllReduceSumInto(r, dst, sum, ph(r, "allreduce"))
				if sum[0] != float64(2*root*100+1) {
					return fmt.Errorf("rank %d: row allreduce %v", r.ID, sum)
				}
				rec(dst[0], sum[0])
			}
			return nil
		}},
		{"ring-and-collective", 4, func(r *Rank, rec func(...float64)) error {
			g, p := r.World().WorldGroup(), r.P()
			next, prev := (r.ID+1)%p, (r.ID+p-1)%p
			for stage := 0; stage < 5; stage++ {
				r.Send(next, stage, []float64{float64(r.ID)}, ph(r, "alltoall"))
				got, sum := make([]float64, 1), make([]float64, 1)
				r.RecvInto(prev, stage, got)
				g.AllReduceSumInto(r, got, sum, ph(r, "allreduce"))
				if got[0] != float64(prev) || sum[0] != 6 {
					return fmt.Errorf("rank %d stage %d: ring %v, sum %v", r.ID, stage, got, sum)
				}
				rec(got[0], sum[0])
			}
			return nil
		}},
		{"async-start-forms", 2, func(r *Rank, rec func(...float64)) error {
			g, peer := r.World().WorldGroup(), 1-r.ID
			a := NewAsync()
			defer a.Close()

			var own []float64
			if r.ID == 0 {
				own = []float64{1, 2, 3}
			}
			dst := make([]float64, 3)
			a.StartBcastFloatsInto(g, r, 0, own, dst, ph(r, "bcast"))
			a.Await()
			rec(dst...)

			r.Send(peer, 7, []float64{float64(r.ID) + 10}, ph(r, "p2p"))
			got := make([]float64, 1)
			a.StartRecvInto(r, peer, 7, got)
			a.Await()
			rec(got...)

			send := [][]float64{{float64(r.ID)}, {float64(r.ID)}}
			recv := [][]float64{make([]float64, 1), make([]float64, 1)}
			a.StartAllToAllvInto(g, r, send, recv, ph(r, "alltoall"))
			a.Await()
			rec(recv[0][0], recv[1][0])
			if dst[2] != 3 || got[0] != float64(peer)+10 || recv[0][0] != 0 || recv[1][0] != 1 {
				return fmt.Errorf("rank %d: async landed bcast %v recv %v alltoallv %v", r.ID, dst, got, recv)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := observe(t, "sim", tc.p, tc.prog)
			tcp := observe(t, "tcp", tc.p, tc.prog)
			for rank := 0; rank < tc.p; rank++ {
				if len(sim.got[rank]) != len(tcp.got[rank]) {
					t.Fatalf("rank %d recorded %d values on sim, %d on tcp", rank, len(sim.got[rank]), len(tcp.got[rank]))
				}
				for k, v := range sim.got[rank] {
					if math.Float64bits(v) != math.Float64bits(tcp.got[rank][k]) {
						t.Errorf("rank %d value %d: sim %v, tcp %v", rank, k, v, tcp.got[rank][k])
					}
				}
				if sim.sent[rank] != tcp.sent[rank] || sim.recv[rank] != tcp.recv[rank] || sim.msgs[rank] != tcp.msgs[rank] {
					t.Errorf("rank %d volume: sim sent/recv/msgs %d/%d/%d, tcp %d/%d/%d", rank,
						sim.sent[rank], sim.recv[rank], sim.msgs[rank], tcp.sent[rank], tcp.recv[rank], tcp.msgs[rank])
				}
				if sim.ops[rank] != tcp.ops[rank] || sim.ops[rank] == 0 {
					t.Errorf("rank %d ops: sim %d, tcp %d", rank, sim.ops[rank], tcp.ops[rank])
				}
			}
			if len(sim.ledger) == 0 || len(sim.ledger) != len(tcp.ledger) {
				t.Fatalf("ledger phases: sim %v, tcp %v", sim.ledger, tcp.ledger)
			}
			for phase, sec := range sim.ledger {
				if got, ok := tcp.ledger[phase]; !ok || math.Float64bits(got) != math.Float64bits(sec) || sec <= 0 {
					t.Errorf("phase %s: sim %v, tcp %v", phase, sec, got)
				}
			}
		})
	}
}

// TestAllToAllvConservation pins the volume accounting itself, not just its
// agreement across transports: an empty exchange moves nothing, and what
// all ranks send is what all ranks receive.
func TestAllToAllvConservation(t *testing.T) {
	w := testWorld(4)
	g := w.WorldGroup()
	w.Run(func(r *Rank) {
		g.AllToAllvInto(r, make([][]float64, 4), make([][]float64, 4), "alltoall")
	})
	if w.Stats().Snapshot().TotalSent() != 0 || w.Stats().MsgsSent(0) != 0 {
		t.Fatal("empty alltoallv should move no bytes and count no messages")
	}
	w.Run(func(r *Rank) {
		send, recv := make([][]float64, 4), make([][]float64, 4)
		for j := range send {
			send[j] = make([]float64, j)
			recv[j] = make([]float64, r.ID)
		}
		g.AllToAllvInto(r, send, recv, "alltoall")
	})
	if s := w.Stats().Snapshot(); s.TotalSent() == 0 || s.TotalSent() != s.TotalRecv() {
		t.Fatalf("conservation violated: sent %d recv %d", s.TotalSent(), s.TotalRecv())
	}
}

// TestMismatchTypedErrors: a wrong tag or size on the p2p lane, and a
// misordered collective stream, surface as typed errors on the rank that saw
// them — on both transports.
func TestMismatchTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		want error
		prog func(r *Rank) error
	}{
		{"p2p-tag", ErrTagMismatch, func(r *Rank) error {
			if r.ID == 0 {
				r.Send(1, 5, []float64{1}, "p2p")
				return nil
			}
			return r.TryRecvInto(0, 6, make([]float64, 1))
		}},
		{"p2p-size", ErrSizeMismatch, func(r *Rank) error {
			if r.ID == 0 {
				r.Send(1, 5, []float64{1, 2, 3}, "p2p")
				return nil
			}
			return r.TryRecvInto(0, 5, make([]float64, 2))
		}},
		{"recvinto-panic-keeps-type", ErrTagMismatch, func(r *Rank) error {
			if r.ID == 0 {
				r.Send(1, 1, []float64{1}, "p2p")
				return nil
			}
			r.RecvInto(0, 2, make([]float64, 1))
			return nil
		}},
		{"collective-order", ErrTagMismatch, func(r *Rank) error {
			g := r.World().WorldGroup()
			buf, out := []float64{1}, make([]float64, 1)
			if r.ID == 0 {
				g.BcastFloatsInto(r, 0, buf, out, "bcast")
				return nil
			}
			g.AllReduceSumInto(r, buf, out, "allreduce") // rank 0 is broadcasting
			return nil
		}},
	}
	for _, tc := range cases {
		for _, transport := range transports {
			t.Run(tc.name+"/"+transport, func(t *testing.T) {
				errs := newFleet(t, transport, 2).run(tc.prog)
				err := errs[len(errs)-1] // the world hosting rank 1, which saw the mismatch
				var re *RankError
				if !errors.Is(err, tc.want) || !errors.As(err, &re) || re.Rank != 1 {
					t.Fatalf("want rank 1 %v, got %v", tc.want, err)
				}
			})
		}
	}
}

// TestAbortMidCollectiveUnblocksEveryRank: one rank fails while the others
// are blocked inside a collective it will never join; every world must
// return a typed error well inside the deadline. An in-process world is then
// reset — no payload stranded in a mailbox, the undelivered ones back in the
// pool — and runs the next collective cleanly. A TCP world is not reusable
// after an abort (peers are not resynchronized), so there the contract ends
// at the typed error and a prompt Close.
func TestAbortMidCollectiveUnblocksEveryRank(t *testing.T) {
	boom := errors.New("boom")
	const p, stranded = 4, 3
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			f := newFleet(t, transport, p)
			start := time.Now()
			errs := f.run(func(r *Rank) error {
				for k := 0; k < stranded; k++ { // never received: stranded by the abort
					r.Send((r.ID+1)%p, k, make([]float64, 100), "p2p")
				}
				g, out := r.World().WorldGroup(), make([]float64, 1)
				g.AllReduceSumInto(r, []float64{1}, out, "allreduce") // everyone has sent
				if r.ID == 2 {
					return boom
				}
				g.AllReduceSumInto(r, []float64{1}, out, "allreduce")
				return nil
			})
			if elapsed := time.Since(start); elapsed > chaosTimeout/2 {
				t.Fatalf("abort took %v to unblock every rank", elapsed)
			}
			for i, err := range errs {
				var re *RankError
				if !errors.As(err, &re) {
					t.Fatalf("world %d: want *RankError, got %v", i, err)
				}
				if local := transport == "sim" || i == 2; local && !errors.Is(err, boom) {
					t.Fatalf("world %d: cause %v, want boom", i, err)
				} else if !local && !errors.Is(err, ErrPeerAborted) && !errors.Is(err, ErrPeerDisconnected) {
					t.Fatalf("world %d: cause %v, want a peer failure", i, err)
				}
			}
			if transport == "tcp" {
				closed := make(chan struct{})
				go func() { f.close(); close(closed) }()
				select {
				case <-closed:
				case <-time.After(chaosTimeout):
					t.Fatal("Close wedged after an abort")
				}
				return
			}
			w := f.worlds[0]
			mb := w.tr.(*mailboxes)
			for lane := range mb.mail {
				for dst := range mb.mail[lane] {
					for src, box := range mb.mail[lane][dst] {
						if len(box) != 0 {
							t.Fatalf("lane %d %d→%d: %d messages stranded after reset", lane, src, dst, len(box))
						}
					}
				}
			}
			if n := len(w.pool.classes[sizeClass(100)]); n < p*stranded {
				t.Fatalf("pool holds %d buffers, want the %d stranded payloads back", n, p*stranded)
			}
			sums := make([]float64, p)
			if err := w.RunTimeout(chaosTimeout, func(r *Rank) error {
				out := make([]float64, 1)
				w.WorldGroup().AllReduceSumInto(r, []float64{float64(r.ID)}, out, "allreduce")
				sums[r.ID] = out[0]
				return nil
			}); err != nil {
				t.Fatalf("post-abort run: %v", err)
			}
			for rank, s := range sums {
				if s != 6 {
					t.Fatalf("rank %d got %v after reset, want 6", rank, s)
				}
			}
		})
	}
}

// TestTCPAbortBetweenLaunches: an abort that reaches a TCP world while no
// launch runs — a peer's abort frame, or a lost peer — fails the next launch
// at once with that cause instead of starting it against peers that have
// moved on. A peer's abort fails one launch and the world runs again; a lost
// peer fails every later launch with the same *RankError.
func TestTCPAbortBetweenLaunches(t *testing.T) {
	const p, victim = 3, 2
	f := newFleet(t, "tcp", p)
	allReduce := func(r *Rank) error {
		r.World().WorldGroup().AllReduceSumInto(r, []float64{1}, make([]float64, 1), "allreduce")
		return nil
	}
	launch := func(f *fleet, what string) []error {
		start := time.Now()
		errs := f.run(allReduce)
		if elapsed := time.Since(start); elapsed > chaosTimeout/2 {
			t.Fatalf("%s took %v", what, elapsed)
		}
		return errs
	}
	for i, err := range launch(f, "clean launch") {
		if err != nil {
			t.Fatalf("world %d: clean launch: %v", i, err)
		}
	}

	boom := errors.New("boom")
	f.worlds[1].Abort(boom)
	awaitAbort(t, f.worlds...)
	for i, err := range launch(f, "launch after a peer abort") {
		want := ErrPeerAborted
		if i == 1 {
			want = boom
		}
		if !errors.Is(err, want) {
			t.Fatalf("world %d: launch after rank 1 aborted returned %v", i, err)
		}
	}
	for i, err := range launch(f, "relaunch") {
		if err != nil {
			t.Fatalf("world %d: a peer's abort outlived the launch it failed: %v", i, err)
		}
	}

	kill(f.worlds[victim])
	survivors := &fleet{worlds: f.worlds[:victim]}
	awaitAbort(t, survivors.worlds...)
	first := launch(survivors, "launch after the kill")
	again := launch(survivors, "second launch after the kill")
	for i, err := range first {
		var re *RankError
		if !errors.As(err, &re) || re.Rank != victim || !errors.Is(err, ErrPeerDisconnected) {
			t.Fatalf("world %d: launch after the kill returned %v, want rank %d's ErrPeerDisconnected", i, err, victim)
		}
		if again[i] != err {
			t.Fatalf("world %d: second launch returned %v, not the same *RankError", i, again[i])
		}
	}
}

// kill drops w off the wire without a goodbye, the way SIGKILL does: its
// connections are torn down and its writers stopped.
func kill(w *World) {
	w.net.teardown()
	for _, p := range w.net.peers {
		if p != nil {
			close(p.q.stop)
			<-p.wdone
		}
	}
}

// awaitAbort waits until every world has an abort recorded.
func awaitAbort(t *testing.T, worlds ...*World) {
	t.Helper()
	deadline := time.Now().Add(chaosTimeout)
	for i, w := range worlds {
		for w.abortCause() == nil {
			if time.Now().After(deadline) {
				t.Fatalf("world %d: no abort recorded within %v", i, chaosTimeout)
			}
			<-time.After(time.Millisecond)
		}
	}
}
