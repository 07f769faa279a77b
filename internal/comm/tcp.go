package comm

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"sagnn/internal/machine"
	"sagnn/internal/retry"
)

// NewWorldTCP creates a World whose communication primitives run over
// persistent framed TCP connections: one OS process per world rank, this
// process hosting rank self. addrs is the static peer list — addrs[i] is the
// listen address of rank i — shared verbatim by every process (the
// rendezvous). len(addrs) is the world size.
//
// Rendezvous builds the full mesh: rank i listens on addrs[i], dials every
// lower rank (with capped exponential backoff, so processes may start in any
// order), and accepts from every higher rank; a hello frame identifies the
// dialer. Connections are persistent, TCP_NODELAY, with per-peer coalescing
// writers and decoding readers (transport.go). Setup is bounded by
// rendezvousTimeout; a missing peer returns an error rather than hanging.
//
// The returned World runs exactly one rank goroutine per Run (the hosted
// rank); the collective layer, its volume accounting and its modeled α–β
// charges are the same code as over mailboxes, so the two transports agree
// bit for bit on every result and ledger. Fault injection targets the hosted
// rank only, and unlike an in-process world an aborted TCP world is not
// reusable: peers are not resynchronized after an abort. Call Close when
// done.
func NewWorldTCP(self int, addrs []string, params machine.Params) (*World, error) {
	p := len(addrs)
	if p <= 0 {
		return nil, fmt.Errorf("comm: NewWorldTCP needs a non-empty peer list")
	}
	if self < 0 || self >= p {
		return nil, fmt.Errorf("comm: rank %d outside peer list of %d", self, p)
	}
	w := newWorld(p, params)
	nw := newNetWorld(w, self, addrs)
	if p > 1 {
		if err := nw.rendezvous(); err != nil {
			nw.teardown()
			return nil, err
		}
		nw.byeWG.Add(p - 1)
		for _, pr := range nw.peers {
			if pr == nil {
				continue
			}
			go nw.reader(pr)
			go nw.writer(pr)
		}
	}
	return w, nil
}

// newNetWorld installs an unconnected wire transport hosting rank self on w.
func newNetWorld(w *World, self int, addrs []string) *netWorld {
	nw := &netWorld{w: w, self: self, addrs: append([]string(nil), addrs...), peers: make([]*netPeer, w.P)}
	nw.inboxes = make([][2]inbox, w.P)
	for i := range nw.inboxes {
		for l := range nw.inboxes[i] {
			nw.inboxes[i][l].sig = make(chan struct{}, 1)
		}
	}
	w.tr, w.net = nw, nw
	w.hosted = []int{self}
	return nw
}

// rendezvous listens on our address and establishes one connection per peer:
// dial every lower rank, accept from every higher rank.
func (nw *netWorld) rendezvous() error {
	ln, err := net.Listen("tcp", nw.addrs[nw.self])
	if err != nil {
		return fmt.Errorf("comm: rank %d listen %s: %w", nw.self, nw.addrs[nw.self], err)
	}
	nw.ln = ln
	ctx, cancel := context.WithTimeout(context.Background(), rendezvousTimeout)
	defer cancel()
	deadline, _ := ctx.Deadline()

	type arrival struct {
		rank int
		conn net.Conn
		err  error
	}
	p := len(nw.addrs)
	ch := make(chan arrival, p)
	nAccept := p - 1 - nw.self
	if nAccept > 0 {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		go func() {
			for k := 0; k < nAccept; k++ {
				conn, err := ln.Accept()
				if err != nil {
					ch <- arrival{err: fmt.Errorf("accept: %w", err)}
					return
				}
				go func(conn net.Conn) {
					rank, err := readHello(conn, deadline)
					ch <- arrival{rank: rank, conn: conn, err: err}
				}(conn)
			}
		}()
	}
	for j := 0; j < nw.self; j++ {
		go func(j int) {
			conn, err := dialPeer(ctx, nw.addrs[j], nw.self)
			ch <- arrival{rank: j, conn: conn, err: err}
		}(j)
	}
	for have := 0; have < p-1; have++ {
		var a arrival
		select {
		case a = <-ch:
		case <-ctx.Done():
			a = arrival{err: ctx.Err()}
		}
		if a.err == nil && (a.rank < 0 || a.rank >= p || a.rank == nw.self || nw.peers[a.rank] != nil) {
			a.conn.Close()
			a.err = fmt.Errorf("unexpected hello from rank %d", a.rank)
		}
		if a.err != nil {
			return fmt.Errorf("comm: rank %d rendezvous: %w", nw.self, a.err)
		}
		if tc, ok := a.conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		nw.peers[a.rank] = &netPeer{rank: a.rank, conn: a.conn, q: newFrameQueue(), wdone: make(chan struct{})}
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	return nil
}

// dialPeer connects to a peer's listen address, retrying with capped
// exponential backoff until ctx expires (the peer may not have started yet),
// and sends the hello frame identifying our rank.
func dialPeer(ctx context.Context, addr string, self int) (net.Conn, error) {
	d := net.Dialer{Timeout: 2 * time.Second}
	for attempt := 1; ; attempt++ {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			hello := make([]byte, frameHeaderLen)
			putHeader(hello, frameHello, laneP2P, self, 0, 0)
			if _, werr := conn.Write(hello); werr == nil {
				return conn, nil
			}
			conn.Close()
		}
		if serr := retry.Sleep(ctx, 50*time.Millisecond, attempt); serr != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, serr)
		}
	}
}

// readHello reads and validates the dialer's hello frame, returning its rank.
func readHello(conn net.Conn, deadline time.Time) (int, error) {
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})
	hdr := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return -1, fmt.Errorf("hello: %w", err)
	}
	kind, _, src, _, _ := parseHeader(hdr)
	if kind != frameHello {
		return -1, fmt.Errorf("hello: unexpected frame kind %d", kind)
	}
	return src, nil
}

// Close shuts down the transport: over TCP it announces an orderly goodbye
// to every peer, waits (bounded) so closing sockets cannot abort a peer
// still mid-run, flushes and stops the writers, and closes all connections
// and the listener. A no-op for an in-process world.
func (w *World) Close() error {
	if w.net == nil {
		return nil
	}
	return w.net.close()
}

// Transport names the transport: "sim" for in-process mailboxes, "tcp" for
// the multi-process framed wire.
func (w *World) Transport() string {
	if w.net == nil {
		return "sim"
	}
	return "tcp"
}

// LocalRank returns the lowest world rank hosted by this process: 0 for an
// in-process world (which hosts every rank), the process's own rank over
// TCP. "Print once" logic gates on LocalRank instead of rank 0 so it stays
// correct across transports.
func (w *World) LocalRank() int { return w.hosted[0] }

// Hosted returns the world ranks this process runs, in ascending order.
func (w *World) Hosted() []int { return append([]int(nil), w.hosted...) }
