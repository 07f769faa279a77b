package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the wire transport: a World built by NewWorldTCP carries a
// netWorld that moves the collective layer's messages over persistent framed
// TCP connections — one process per rank, full mesh — where NewWorld's
// mailboxes (mailbox.go) move them between goroutines. Both land messages in
// the same unbounded inbox, so the transports differ only in how bytes move.
// Everything above the transport interface, the compiled distmm.Plan IR
// included, is the same code over either; the conformance tests pin that the
// outputs and the logical volume ledgers are bit-identical.
//
// Wire protocol: every frame is an 18-byte header
//
//	kind(1) lane(1) src(4, LE) tag(8, LE int64) count(4, LE)
//
// followed by count float64s (8 bytes each, LE bits) for data frames, or
// count raw bytes (a cause string) for abort frames. The two lanes are
// multiplexed over one connection pair; within a lane, per-(src,dst) FIFO
// order is the TCP stream order — exactly the ordering guarantee the
// mailboxes provide. count is bounded (maxFrameElems, maxAbortBytes) before
// anything is allocated for it: the header is peer-supplied.
//
// Note the accounting split: logical volumes and modeled α–β time are charged
// by the collective layer, identically over both transports (a broadcast is
// one logical tree send even though the root writes g-1 frames), while the
// wire moves 8-byte float64s where the logical model counts
// machine.BytesPerElem. Calibration (calibrate.go) fits α and β in
// logical-byte units, absorbing that constant factor into β.

// Frame kinds.
const (
	frameHello   byte = 1 // rendezvous: dialer identifies its rank
	frameFloats  byte = 2 // float64 payload
	frameAbort   byte = 4 // peer aborted; payload is the cause string
	frameGoodbye byte = 5 // orderly shutdown: peer will send nothing more
)

// Frame payload bounds, enforced on both ends: a sender refuses to exceed
// them and a reader treats a header that does as malformed, so a corrupt or
// hostile count can make the reader allocate at most this much.
const (
	maxFrameElems = 1 << 26 // float64s per data frame (512 MiB on the wire)
	maxAbortBytes = 1 << 12 // bytes of abort cause text
	// decodeChunk is the reader's fixed scratch: payloads are read and
	// decoded this many bytes at a time, whatever their length.
	decodeChunk = 256 << 10
)

// frameHeaderLen is the fixed header size preceding every payload.
const frameHeaderLen = 18

// rendezvousTimeout bounds the full-mesh connection setup in NewWorldTCP.
const rendezvousTimeout = 30 * time.Second

// closeGrace bounds how long Close waits for peers' goodbye frames before
// tearing connections down anyway (a dead peer never says goodbye).
const closeGrace = 5 * time.Second

// putHeader encodes a frame header into b (len ≥ frameHeaderLen).
func putHeader(b []byte, kind, lane byte, src, tag, count int) {
	b[0] = kind
	b[1] = lane
	binary.LittleEndian.PutUint32(b[2:6], uint32(src))
	binary.LittleEndian.PutUint64(b[6:14], uint64(int64(tag)))
	binary.LittleEndian.PutUint32(b[14:18], uint32(count))
}

// parseHeader decodes a frame header.
func parseHeader(b []byte) (kind, lane byte, src, tag, count int) {
	kind = b[0]
	lane = b[1]
	src = int(int32(binary.LittleEndian.Uint32(b[2:6])))
	tag = int(int64(binary.LittleEndian.Uint64(b[6:14])))
	count = int(int32(binary.LittleEndian.Uint32(b[14:18])))
	return
}

// framePool recycles encoded frame buffers between senders and the per-peer
// writer goroutines.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// getFrame returns a length-n frame buffer with unspecified contents.
func getFrame(n int) []byte {
	b := *framePool.Get().(*[]byte)
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// putFrame recycles a frame buffer.
func putFrame(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

// queue is the one unbounded FIFO under both transports: each rank's inbox
// per (peer, lane), and each wire peer's outgoing frame queue. A push never
// blocks, so neither does a send; a pop blocks until an element is queued or
// stop closes, and hands out what is queued before it reports the stop.
type queue[T any] struct {
	mu  sync.Mutex
	q   []T
	sig chan struct{} // buffered(1) wakeup; coalesces pushes
}

// inbox is one lane's receive queue from one peer: an in-process sender
// pushes into it directly, the wire's reader goroutine after decoding.
type inbox = queue[message]

// push appends an element and wakes a waiting consumer.
func (b *queue[T]) push(m T) {
	b.mu.Lock()
	b.q = append(b.q, m)
	b.mu.Unlock()
	select {
	case b.sig <- struct{}{}:
	default:
	}
}

// pop dequeues the next element, blocking until one arrives or stop closes;
// ok is false on stop. When the queue stays non-empty it re-arms the wakeup
// so coalesced pushes are never lost.
func (b *queue[T]) pop(stop <-chan struct{}) (m T, ok bool) {
	for {
		b.mu.Lock()
		if len(b.q) > 0 {
			var zero T
			m = b.q[0]
			copy(b.q, b.q[1:])
			b.q[len(b.q)-1] = zero
			b.q = b.q[:len(b.q)-1]
			nonEmpty := len(b.q) > 0
			b.mu.Unlock()
			if nonEmpty {
				select {
				case b.sig <- struct{}{}:
				default:
				}
			}
			return m, true
		}
		b.mu.Unlock()
		select {
		case <-b.sig:
		case <-stop:
			return m, false
		}
	}
}

// empty reports whether nothing is queued (the writer's flush-on-idle test).
func (b *queue[T]) empty() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q) == 0
}

// recvOrUnwind is pop on w's abort channel for a rank goroutine: an abort
// unwinds with the abortPanic panic, which RunErr recovers into the recorded
// *RankError.
func recvOrUnwind(b *inbox, w *World) message {
	m, ok := b.pop(w.abortCh.Load().ch)
	if !ok {
		panic(abortPanic{})
	}
	return m
}

// drainInto empties the inbox, recycling float payloads.
func drainInto(b *inbox, pool *bufPool) {
	b.mu.Lock()
	for _, m := range b.q {
		pool.put(m.floats)
	}
	b.q = b.q[:0]
	b.mu.Unlock()
}

// newInboxes returns one rank's receive queues, indexed [src][lane].
func newInboxes(p int) [][2]inbox {
	in := make([][2]inbox, p)
	for i := range in {
		for l := range in[i] {
			in[i][l].sig = make(chan struct{}, 1)
		}
	}
	return in
}

// drainInboxes empties one rank's receive queues into the pool.
func drainInboxes(in [][2]inbox, pool *bufPool) {
	for i := range in {
		for l := range in[i] {
			drainInto(&in[i][l], pool)
		}
	}
}

// netPeer is one full-mesh neighbour: its connection, the outgoing frame
// queue its writer goroutine drains, and shutdown bookkeeping.
type netPeer struct {
	rank    int
	conn    net.Conn
	q       queue[[]byte]
	stop    chan struct{} // closed by Close: the writer drains q and exits
	wdone   chan struct{} // closed when the writer goroutine exits
	saidBye atomic.Bool   // peer sent goodbye (or its reader exited)
	byeOnce sync.Once
}

// newNetPeer wraps a rendezvoused connection; its writer is not started.
func newNetPeer(rank int, conn net.Conn) *netPeer {
	p := &netPeer{rank: rank, conn: conn, stop: make(chan struct{}), wdone: make(chan struct{})}
	p.q.sig = make(chan struct{}, 1)
	return p
}

// netWorld is the wire transport's state, hung off a World: exactly one hosted
// rank (self), a persistent connection per peer, per-(src,lane) inboxes the
// reader goroutines land decoded frames into, and orderly-shutdown state.
type netWorld struct {
	w      *World
	self   int
	addrs  []string
	ln     net.Listener
	peers  []*netPeer // indexed by world rank; nil at self
	closed atomic.Bool
	byeWG  sync.WaitGroup // one count per peer, released on goodbye/EOF

	// inboxes[src][lane] queues decoded messages from src.
	inboxes [][2]inbox
}

// markBye releases the peer's goodbye count exactly once.
func (nw *netWorld) markBye(p *netPeer) {
	p.saidBye.Store(true)
	p.byeOnce.Do(nw.byeWG.Done)
}

// enqueue hands an encoded frame to dst's writer. Frames to a torn-down peer
// are dropped — the disconnect itself is surfaced by the reader's abort.
func (nw *netWorld) enqueue(dst int, b []byte) {
	p := nw.peers[dst]
	if p == nil {
		putFrame(b)
		return
	}
	p.q.push(b)
}

// send encodes a float frame and hands it to dst's writer; wire sends never
// block. Serialization is synchronous in the caller, so an owned payload is
// recycled on return. A payload over the frame bound panics (the receiver
// would reject it as malformed).
func (nw *netWorld) send(_, dst int, lane byte, tag int, data []float64, owned bool) {
	if len(data) > maxFrameElems {
		panic(fmt.Sprintf("comm: %d-element payload exceeds the %d-element frame bound", len(data), maxFrameElems))
	}
	b := getFrame(frameHeaderLen + len(data)*8)
	putHeader(b, frameFloats, lane, nw.self, tag, len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[frameHeaderLen+i*8:], math.Float64bits(v))
	}
	nw.enqueue(dst, b)
	if owned {
		nw.w.pool.put(data)
	}
}

// recv pops the next frame from src on the given lane (see recvOrUnwind).
func (nw *netWorld) recv(_, src int, lane byte) message {
	return recvOrUnwind(&nw.inboxes[src][lane], nw.w)
}

// drain empties every inbox back into the buffer pool (World.reset).
func (nw *netWorld) drain() { drainInboxes(nw.inboxes, &nw.w.pool) }

// broadcastAbort tells every peer this process has aborted (best-effort; a
// peer that is gone already surfaced its own disconnect).
func (nw *netWorld) broadcastAbort(err error) {
	if nw.closed.Load() {
		return
	}
	msg := err.Error()
	if len(msg) > maxAbortBytes {
		msg = msg[:maxAbortBytes]
	}
	for _, p := range nw.peers {
		if p == nil {
			continue
		}
		b := getFrame(frameHeaderLen + len(msg))
		putHeader(b, frameAbort, laneP2P, nw.self, 0, len(msg))
		copy(b[frameHeaderLen:], msg)
		p.q.push(b)
	}
}

// writer is the per-peer send goroutine: it writes queued frames through a
// buffered writer and flushes only when the queue runs dry, coalescing the
// many-small-frames patterns (SendRows bursts, all-to-allv) into few
// syscalls. A write error is left for the reader on this connection to
// surface; the bufio.Writer keeps failing fast after it while the queue
// drains.
func (nw *netWorld) writer(p *netPeer) {
	defer close(p.wdone)
	bw := bufio.NewWriterSize(p.conn, 64<<10)
	for {
		b, ok := p.q.pop(p.stop)
		if !ok {
			bw.Flush()
			return
		}
		bw.Write(b)
		putFrame(b)
		if p.q.empty() {
			bw.Flush()
		}
	}
}

// reader is the per-peer receive goroutine: it decodes frames off the
// connection into pooled buffers and lands them in the (src,lane) inbox. A
// connection failure before the peer's goodbye — or a malformed frame —
// aborts the world with a *RankError wrapping ErrPeerDisconnected: a killed,
// hung or corrupt peer surfaces as a typed error on every survivor instead
// of a deadlock.
func (nw *netWorld) reader(p *netPeer) {
	defer nw.markBye(p) // a vanished peer must not wedge Close's goodbye wait
	hdr := make([]byte, frameHeaderLen)
	scratch := make([]byte, decodeChunk)
	for {
		if _, err := io.ReadFull(p.conn, hdr); err != nil {
			nw.peerGone(p, err)
			return
		}
		kind, lane, src, tag, count := parseHeader(hdr)
		limit := 0
		switch kind {
		case frameFloats:
			limit = maxFrameElems
		case frameAbort:
			limit = maxAbortBytes
		}
		if src != p.rank || lane > laneColl || count < 0 || count > limit {
			nw.peerGone(p, fmt.Errorf("comm: malformed frame from rank %d (kind %d src %d lane %d count %d)", p.rank, kind, src, lane, count))
			return
		}
		switch kind {
		case frameFloats:
			var buf []float64
			for done := 0; done < count; {
				n := count - done
				if n > decodeChunk/8 {
					n = decodeChunk / 8
				}
				s := scratch[:n*8]
				if _, err := io.ReadFull(p.conn, s); err != nil {
					nw.w.pool.put(buf)
					nw.peerGone(p, err)
					return
				}
				if buf == nil { // only once payload has arrived behind the header
					buf = nw.w.pool.get(count)
				}
				for i := 0; i < n; i++ {
					buf[done+i] = math.Float64frombits(binary.LittleEndian.Uint64(s[i*8:]))
				}
				done += n
			}
			nw.inboxes[src][lane].push(message{tag: tag, floats: buf})
		case frameAbort:
			s := scratch[:count]
			if _, err := io.ReadFull(p.conn, s); err != nil {
				nw.peerGone(p, err)
				return
			}
			nw.w.abort(&RankError{Rank: p.rank, Err: fmt.Errorf("%w: %s", ErrPeerAborted, string(s))}, false)
		case frameGoodbye:
			nw.markBye(p)
		default:
			nw.peerGone(p, fmt.Errorf("comm: unknown frame kind %d from rank %d", kind, p.rank))
			return
		}
	}
}

// peerGone maps a connection failure onto the abort protocol as a lost peer
// — sticky: no later launch runs — unless the failure is an expected
// consequence of orderly shutdown (this side already closing, or the peer
// said goodbye and then closed its end).
func (nw *netWorld) peerGone(p *netPeer, err error) {
	if nw.closed.Load() || p.saidBye.Load() {
		return
	}
	nw.w.losePeer(&RankError{Rank: p.rank, Err: fmt.Errorf("%w: %v", ErrPeerDisconnected, err)})
}

// close runs the orderly shutdown: announce goodbye to every peer, wait
// (bounded by closeGrace) until every peer has said goodbye or vanished — so
// closing our sockets cannot abort a peer still mid-run — then stop the
// writers (flushing their queues) and tear the connections down.
func (nw *netWorld) close() error {
	if nw.closed.Swap(true) {
		return nil
	}
	for _, p := range nw.peers {
		if p == nil {
			continue
		}
		b := getFrame(frameHeaderLen)
		putHeader(b, frameGoodbye, laneP2P, nw.self, 0, 0)
		p.q.push(b)
	}
	done := make(chan struct{})
	go func() {
		nw.byeWG.Wait()
		close(done)
	}()
	grace := time.NewTimer(closeGrace)
	select {
	case <-done:
	case <-grace.C:
	}
	grace.Stop()
	var first error
	for _, p := range nw.peers {
		if p == nil {
			continue
		}
		close(p.stop)
		<-p.wdone
		if err := p.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	if nw.ln != nil {
		if err := nw.ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// teardown closes everything unconditionally (failed rendezvous cleanup).
func (nw *netWorld) teardown() {
	nw.closed.Store(true)
	for _, p := range nw.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	if nw.ln != nil {
		nw.ln.Close()
	}
}
