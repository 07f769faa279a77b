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
// mailboxes (mailbox.go) move them between goroutines. Everything above the
// transport interface, the compiled distmm.Plan IR included, is the same
// code over either; the conformance tests pin that the outputs and the
// logical volume ledgers are bit-identical.
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

// inbox is one lane's receive queue from one peer: unbounded (the wire has
// no MailboxDepth backpressure — the reader goroutine always drains the
// socket, so a remote sender never blocks), FIFO, and abort-aware on the
// consumer side.
type inbox struct {
	mu  sync.Mutex
	q   []message
	sig chan struct{} // buffered(1) wakeup; coalesces pushes
}

// push appends a message and wakes a waiting consumer.
func (b *inbox) push(m message) {
	b.mu.Lock()
	b.q = append(b.q, m)
	b.mu.Unlock()
	select {
	case b.sig <- struct{}{}:
	default:
	}
}

// pop dequeues the next message, blocking until one arrives or abort closes;
// ok is false on abort. When the queue stays non-empty it re-arms the wakeup
// so coalesced pushes are never lost.
func (b *inbox) pop(abort <-chan struct{}) (message, bool) {
	for {
		b.mu.Lock()
		if len(b.q) > 0 {
			m := b.q[0]
			copy(b.q, b.q[1:])
			b.q[len(b.q)-1] = message{}
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
		case <-abort:
			return message{}, false
		}
	}
}

// drainInto empties the inbox, recycling float payloads.
func (b *inbox) drainInto(pool *bufPool) {
	b.mu.Lock()
	for _, m := range b.q {
		pool.put(m.floats)
	}
	b.q = b.q[:0]
	b.mu.Unlock()
}

// frameQueue is a per-peer unbounded queue of encoded frames feeding one
// writer goroutine — the write-coalescing stage: many small frames enqueued
// while a write is in progress are drained as one batch and flushed once.
type frameQueue struct {
	mu   sync.Mutex
	bufs [][]byte
	sig  chan struct{} // buffered(1) wakeup
	stop chan struct{}
}

func newFrameQueue() *frameQueue {
	return &frameQueue{sig: make(chan struct{}, 1), stop: make(chan struct{})}
}

// push enqueues an encoded frame; never blocks.
func (q *frameQueue) push(b []byte) {
	q.mu.Lock()
	q.bufs = append(q.bufs, b)
	q.mu.Unlock()
	select {
	case q.sig <- struct{}{}:
	default:
	}
}

// drain blocks until frames are pending and takes them all; ok is false once
// the queue is stopped and empty (frames enqueued before stop still drain).
func (q *frameQueue) drain() (batch [][]byte, ok bool) {
	for {
		q.mu.Lock()
		if len(q.bufs) > 0 {
			batch = q.bufs
			q.bufs = nil
			q.mu.Unlock()
			return batch, true
		}
		q.mu.Unlock()
		select {
		case <-q.sig:
		case <-q.stop:
			q.mu.Lock()
			batch = q.bufs
			q.bufs = nil
			q.mu.Unlock()
			return batch, len(batch) > 0
		}
	}
}

// empty reports whether nothing is pending (the flush-on-idle test).
func (q *frameQueue) empty() bool {
	q.mu.Lock()
	e := len(q.bufs) == 0
	q.mu.Unlock()
	return e
}

// netPeer is one full-mesh neighbour: its connection, the outgoing frame
// queue its writer goroutine drains, and shutdown bookkeeping.
type netPeer struct {
	rank    int
	conn    net.Conn
	q       *frameQueue
	wdone   chan struct{} // closed when the writer goroutine exits
	saidBye atomic.Bool   // peer sent goodbye (or its reader exited)
	byeOnce sync.Once
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

// recv pops the next frame from src on the given lane, unwinding with the
// abortPanic panic when the world aborts first (the caller is a rank
// goroutine; RunErr recovers the panic into the recorded *RankError).
func (nw *netWorld) recv(_, src int, lane byte) message {
	m, ok := nw.inboxes[src][lane].pop(nw.w.abortCh.Load().ch)
	if !ok {
		panic(abortPanic{})
	}
	return m
}

// drain empties every inbox back into the buffer pool (World.reset).
func (nw *netWorld) drain() {
	for i := range nw.inboxes {
		for l := range nw.inboxes[i] {
			nw.inboxes[i][l].drainInto(&nw.w.pool)
		}
	}
}

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

// writer is the per-peer send goroutine: it drains the frame queue in
// batches through a buffered writer and flushes only when the queue runs
// dry, coalescing the many-small-frames patterns (SendRows bursts,
// all-to-allv) into few syscalls.
func (nw *netWorld) writer(p *netPeer) {
	defer close(p.wdone)
	bw := bufio.NewWriterSize(p.conn, 64<<10)
	for {
		batch, ok := p.q.drain()
		for _, b := range batch {
			if _, err := bw.Write(b); err != nil {
				putFrame(b)
				// The reader on this connection surfaces the failure; the
				// writer just stops transmitting.
				if !ok {
					return
				}
				continue
			}
			putFrame(b)
		}
		if !ok {
			bw.Flush()
			return
		}
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
		close(p.q.stop)
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
