package comm

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"testing"

	"sagnn/internal/machine"
)

// TestWriteThroughRemainders drives the wire's remainder path at fixed split
// points: every inline write is capped at k bytes of its frame, for k at the
// ends of the frame and on both sides of the header's end, so the writer
// goroutine finishes each frame from byte k on — part of the header, the
// header's last byte, exactly the payload, or nothing at all. Every primitive
// runs over three loopback worlds, borrowed payloads are clobbered the moment
// their call returns, and every rank must see every message in order, bit
// for bit. Two widths: one whose remainders coalesce in the writer's pending
// buffer, and one wider than it and than the reader's decode chunk.
func TestWriteThroughRemainders(t *testing.T) {
	const p = 3
	for _, n := range []int{37, wideLens[3]} {
		frameLen := frameHeaderLen + 8*n
		f := newFleet(t, "tcp", p)
		for _, k := range []int{0, 1, frameHeaderLen - 1, frameHeaderLen, frameHeaderLen + 1, frameLen - 1, frameLen} {
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				for _, w := range f.worlds {
					capInlineWrites(w, k)
				}
				for i, err := range f.run(func(r *Rank) error { return writeThroughProgram(r, n) }) {
					if err != nil {
						t.Fatalf("world %d: %v", i, err)
					}
				}
			})
		}
	}
}

// writeThroughProgram runs Send, SendOwned, BcastFloatsInto from every root,
// AllReduceSumInto and AllToAllvInto with n-float payloads, checking every
// landed payload's bits.
func writeThroughProgram(r *Rank, n int) error {
	g, p := r.World().WorldGroup(), r.P()
	next, prev := (r.ID+1)%p, (r.ID+p-1)%p
	got := make([]float64, n)
	check := func(what string, want []float64) error {
		if !sameBits(got, want) {
			return fmt.Errorf("rank %d: %s changed bits", r.ID, what)
		}
		return nil
	}
	// Three of each back to back, so later frames queue behind the
	// remainders of earlier ones.
	for k := 0; k < 3; k++ {
		buf := widePayload(n, r.ID, k)
		r.Send(next, k, buf, "p2p")
		clobber(buf)
		own := r.GetFloats(n)
		copy(own, widePayload(n, r.ID, 10+k))
		r.SendOwned(next, 10+k, own, "p2p")
	}
	for k := 0; k < 3; k++ {
		for _, tag := range []int{k, 10 + k} {
			r.RecvInto(prev, tag, got)
			if err := check(fmt.Sprintf("message %d from %d", tag, prev), widePayload(n, prev, tag)); err != nil {
				return err
			}
		}
	}
	for root := 0; root < p; root++ {
		var data []float64
		if r.ID == root {
			data = widePayload(n, root, 20)
		}
		g.BcastFloatsInto(r, root, data, got, "bcast")
		clobber(data)
		if err := check(fmt.Sprintf("bcast from %d", root), widePayload(n, root, 20)); err != nil {
			return err
		}
	}
	in := widePayload(n, r.ID, 30)
	g.AllReduceSumInto(r, in, got, "allreduce")
	clobber(in)
	sum := make([]float64, n)
	for i := 0; i < p; i++ {
		for j, x := range widePayload(n, i, 30) {
			sum[j] += x
		}
	}
	if err := check("allreduce", sum); err != nil {
		return err
	}
	send, recv := make([][]float64, p), make([][]float64, p)
	for j := range send {
		send[j], recv[j] = widePayload(n, r.ID, 40+j), make([]float64, n)
	}
	g.AllToAllvInto(r, send, recv, "alltoall")
	for j := range recv {
		clobber(send[j])
		got = recv[j]
		if err := check(fmt.Sprintf("alltoallv bucket from %d", j), widePayload(n, j, 40+r.ID)); err != nil {
			return err
		}
	}
	return nil
}

// FuzzWriteThrough sends a fuzzed sequence of frames from rank 0 to rank 1
// of two loopback worlds, each with its own size, its own inline-write cap
// (or none) and its own primitive — Send, SendOwned or a broadcast — and
// rank 1 must receive exactly that sequence, bit for bit. Five input bytes
// describe one frame.
func FuzzWriteThrough(f *testing.F) {
	frame := func(n, k uint16, kind byte) []byte {
		b := make([]byte, 5)
		binary.LittleEndian.PutUint16(b, n)
		binary.LittleEndian.PutUint16(b[2:], k)
		b[4] = kind
		return b
	}
	f.Add(frame(0, 0, 0))
	f.Add(append(frame(3, 1, 0), frame(3, 19, 1)...))
	f.Add(append(append(frame(1<<15, 18, 2), frame(1, 0, 0)...), frame(1<<15, 0, 1)...))
	f.Add(append(frame(5000, 17, 1), frame(5000, 40018, 2)...))
	fl := newFleet(f, "tcp", 2)
	f.Fuzz(func(t *testing.T, in []byte) {
		type spec struct{ n, k, kind int }
		var specs []spec
		for len(in) >= 5 && len(specs) < 32 {
			n := int(binary.LittleEndian.Uint16(in)) % (1<<15 + 1)
			// k runs from −1 (no cap) to the whole frame.
			k := int(binary.LittleEndian.Uint16(in[2:]))%(frameHeaderLen+8*n+2) - 1
			specs = append(specs, spec{n, k, int(in[4] % 3)})
			in = in[5:]
		}
		errs := fl.run(func(r *Rank) error {
			g := r.World().WorldGroup()
			for i, s := range specs {
				want := widePayload(s.n, 0, i)
				if r.ID == 0 {
					capInlineWrites(r.World(), s.k)
					switch s.kind {
					case 0:
						r.Send(1, i, want, "p2p")
					case 1:
						own := r.GetFloats(s.n)
						copy(own, want)
						r.SendOwned(1, i, own, "p2p")
					default:
						g.BcastFloatsInto(r, 0, want, make([]float64, s.n), "bcast")
					}
					clobber(want)
					continue
				}
				got := make([]float64, s.n)
				if s.kind < 2 {
					if err := r.TryRecvInto(0, i, got); err != nil {
						return err
					}
				} else {
					g.BcastFloatsInto(r, 0, nil, got, "bcast")
				}
				if !sameBits(got, want) {
					return fmt.Errorf("frame %d (%d floats, cap %d) changed bits", i, s.n, s.k)
				}
			}
			return nil
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("world %d: %v", i, err)
			}
		}
	})
}

// TestWriteThroughWaitsForWriter pins the ordering rule a sender's inline
// write keeps: once the writer goroutine has taken a frame, a send to the
// same peer writes nothing inline — even with the queue empty again — until
// the writer has finished; otherwise its bytes could land inside the
// writer's frame. The writer's steps are taken by hand on one loopback
// connection, with inline writes capped at one byte.
func TestWriteThroughWaitsForWriter(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no inline writes on this platform: every frame queues")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	far, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer far.Close()

	nw := newNetWorld(newWorld(2, machine.Perlmutter()), 0, []string{"", ""})
	p := newNetPeer(1, conn)
	nw.peers[1] = p
	capInlineWrites(nw.w, 1)
	nw.send(0, 1, laneP2P, 1, []float64{1}, false)
	first, ok := p.next(false)
	if !ok || first.head != 1 {
		t.Fatalf("the first frame's remainder is not queued from byte 1 (queued %t)", ok)
	}
	nw.send(0, 1, laneP2P, 2, []float64{2}, false)
	second, ok := p.next(true)
	if !ok || second.head != 0 {
		t.Fatalf("a send wrote inline while the writer held a frame (queued %t)", ok)
	}
	if _, ok := p.next(false); ok || p.busy {
		t.Fatal("the writer is still busy with nothing queued or pending")
	}
	nw.send(0, 1, laneP2P, 3, []float64{3}, false)
	if third, ok := p.next(false); !ok || third.head != 1 {
		t.Fatal("an idle writer did not let the next send write inline")
	}
}
