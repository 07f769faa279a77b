package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
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
// followed by count float64s as little-endian IEEE bytes for data frames, or
// count raw bytes (a cause string) for abort frames. The two lanes are
// multiplexed over one connection pair; within a lane, per-(src,dst) FIFO
// order is the TCP stream order — exactly the ordering guarantee the
// mailboxes provide. count is bounded (maxFrameElems, maxAbortBytes) before
// anything is allocated for it: the header is peer-supplied.
//
// Payloads move in bulk, as the bytes of their float64s: on a little-endian
// host a []float64's memory is already the wire format, and a big-endian
// host byte-swaps each word (swapWords), a sender into a pooled copy first
// and a reader in place. A sender writes each data frame into its peer's
// socket itself, in one non-blocking writev of the header and the payload's
// own memory (tryWriter), so nothing is copied and no goroutine hand-off
// sits between a send and the kernel. What the kernel does not take — all
// of the frame when the socket buffer is full, or a tail that may start
// inside the header — is queued before the send returns, for the peer's
// writer goroutine to finish: a borrowed payload's tail in a pooled copy,
// an owned payload as itself. A one-to-many send (a broadcast root, an
// all-reduce member) writes the same bytes to each destination in turn, and
// the destinations that come up short share one copy. A frame goes inline
// only while nothing to that peer is queued or being written, so per-peer
// order is the order of the sends. The writer also sends abort and goodbye
// frames, and coalesces whatever queues into few syscalls. A reader reads a
// payload through its buffered reader straight into the pooled float buffer
// the message lands in.
//
// Note the accounting split: logical volumes and modeled α–β time are charged
// by the collective layer, identically over both transports (a broadcast is
// one logical tree send even though the root's frame goes out on g-1
// connections), while the wire moves 8-byte float64s where the logical model
// counts machine.BytesPerElem. Calibration (calibrate.go) fits α and β in
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
	// decodeChunk is the reader's first-chunk scratch: a payload that finds
	// no free pooled buffer of its class is allocated only once this many of
	// its bytes (all of them, if fewer) have arrived behind the header.
	decodeChunk = 256 << 10
	// wireBuf sizes the reader's buffered reader and the writer's pending
	// buffer: large enough to take a burst of small frames in one syscall,
	// small enough that little of a wide payload passes through them
	// instead of moving in place.
	wireBuf = 16 << 10
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

// frame is one outgoing frame for a peer's writer goroutine to send: what
// a sender's inline write left of a float frame — the header from byte head
// on, and the payload bytes behind it (in the pooled buffer data, unless
// they are a one-to-many send's shared copy) — or a whole abort or goodbye
// frame. The writer recycles it once written: data into the world's
// bufPool, where it serves the next send or receive of its class, and the
// frame into the free list.
type frame struct {
	hdr  [frameHeaderLen]byte
	head int
	body []byte
	data []float64
}

// newFrame returns a frame from the free list (a buffered channel, as
// bufPool's classes are: no allocation once warm) with its header written
// and no payload.
func (nw *netWorld) newFrame(kind, lane byte, tag, count int) *frame {
	var f *frame
	select {
	case f = <-nw.frames:
	default:
		f = new(frame)
	}
	putHeader(f.hdr[:], kind, lane, nw.self, tag, count)
	return f
}

// release recycles a written (or dropped) frame.
func (nw *netWorld) release(f *frame) {
	nw.w.pool.put(f.data)
	f.head, f.body, f.data = 0, nil, nil
	select {
	case nw.frames <- f:
	default:
	}
}

// hostLittleEndian reports whether a float64 sits in memory in wire order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views f's memory as its 8·len(f) bytes, in host order.
func floatBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))
}

// swapWords reverses the byte order of every 8-byte word of b: the portable
// fix-up between host and wire order on a big-endian host.
func swapWords(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], binary.BigEndian.Uint64(b[i:]))
	}
}

// wireOrder converts f in place between host and wire byte order, either
// way (the swap is its own inverse): nothing to do on a little-endian host.
func wireOrder(f []float64) {
	if !hostLittleEndian {
		swapWords(floatBytes(f))
	}
}

// inWireOrder returns data in wire order and whether the result is owned:
// on a little-endian host data itself, as it came; on a big-endian one an
// owned payload swapped in place, a borrowed one swapped into a pooled copy,
// which is owned.
func (nw *netWorld) inWireOrder(data []float64, owned bool) ([]float64, bool) {
	if hostLittleEndian || len(data) == 0 {
		return data, owned
	}
	if !owned {
		cp := nw.w.pool.get(len(data))
		copy(cp, data)
		data = cp
	}
	wireOrder(data)
	return data, true
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
		m, ok = b.shift()
		nonEmpty := len(b.q) > 0
		b.mu.Unlock()
		if ok {
			if nonEmpty {
				select {
				case b.sig <- struct{}{}:
				default:
				}
			}
			return m, true
		}
		select {
		case <-b.sig:
		case <-stop:
			return m, false
		}
	}
}

// tryPop dequeues the next element without blocking; ok is false when
// nothing is queued.
func (b *queue[T]) tryPop() (m T, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shift()
}

// shift removes the head element; the caller holds mu.
func (b *queue[T]) shift() (m T, ok bool) {
	if len(b.q) == 0 {
		return m, false
	}
	var zero T
	m = b.q[0]
	copy(b.q, b.q[1:])
	b.q[len(b.q)-1] = zero
	b.q = b.q[:len(b.q)-1]
	return m, true
}

// empty reports whether nothing is queued.
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

// netPeer is one full-mesh neighbour: its connection, the frames its
// writer goroutine is to finish, and shutdown bookkeeping. mu orders a
// sender's inline write against the writer: a sender writes inline only
// while q is empty and the writer holds no frame (busy), and queues any
// remainder before it unlocks; the writer takes a frame and sets busy under
// mu, and clears busy under mu once q is empty and all it took is written.
// Neither blocks while holding mu — the inline write never waits and the
// writer writes unlocked — so a send never waits on a slow peer.
type netPeer struct {
	rank    int
	conn    net.Conn
	mu      sync.Mutex
	q       queue[*frame]
	busy    bool                 // guarded by mu
	hdr     [frameHeaderLen]byte // the inline write's header; guarded by mu
	tw      tryWriter            // guarded by mu
	failed  atomic.Bool          // a write on conn failed: later frames are dropped
	stop    chan struct{}        // closed by Close: the writer drains q and exits
	wdone   chan struct{}        // closed when the writer goroutine exits
	saidBye atomic.Bool          // peer sent goodbye (or its reader exited)
	byeOnce sync.Once
}

// newNetPeer wraps a rendezvoused connection; its writer is not started.
func newNetPeer(rank int, conn net.Conn) *netPeer {
	p := &netPeer{rank: rank, conn: conn, stop: make(chan struct{}), wdone: make(chan struct{})}
	p.q.sig = make(chan struct{}, 1)
	p.tw.init(conn)
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
	// frames is the free list of outgoing frames; its depth is bufPool's
	// per class.
	frames chan *frame
	// inlineCap is a test seam: when ≥ 0, an inline write sends at most
	// this many bytes of its frame and queues the rest.
	inlineCap int
}

// markBye releases the peer's goodbye count exactly once.
func (nw *netWorld) markBye(p *netPeer) {
	p.saidBye.Store(true)
	p.byeOnce.Do(nw.byeWG.Done)
}

// enqueue queues a frame for p's writer.
func (nw *netWorld) enqueue(p *netPeer, f *frame) {
	p.mu.Lock()
	p.q.push(f)
	p.mu.Unlock()
}

// send writes a float frame to dst; wire sends never block.
func (nw *netWorld) send(_, dst int, lane byte, tag int, data []float64, owned bool) {
	data, owned = nw.inWireOrder(data, owned)
	nw.sendFrame(dst, lane, tag, data, owned, nil)
}

// sendMany writes the same float frame to every destination but src, in
// dsts order. The destinations whose sockets come up short resume from one
// copy of the payload that they share (see sendFrame).
func (nw *netWorld) sendMany(src int, dsts []int, lane byte, tag int, data []float64) {
	wire, copied := nw.inWireOrder(data, false)
	var shared []byte
	for _, d := range dsts {
		if d != src {
			nw.sendFrame(d, lane, tag, wire, false, &shared)
		}
	}
	if copied {
		nw.w.pool.put(wire)
	}
}

// sendFrame sends a float frame of data, already in wire order, to dst.
// While nothing to dst is queued or being written, the frame goes straight
// into the socket; what the kernel does not take is queued for dst's writer
// before sendFrame returns, so the caller may reuse a borrowed payload at
// once. An owned payload's tail stays in the payload, recycled once
// written. A borrowed payload's tail is copied into a pooled buffer — or,
// for a one-to-many send (shared non-nil), read from one garbage-collected
// copy of the whole payload made at the first short destination. A pooled
// copy per destination measured about 20 MB more peak RSS on the oblivious
// TCP benchmark row, whose only short one-to-many sends are the set-up's
// 4.9 MB broadcasts (EXPERIMENTS.md "Write-through sends").
// Frames to a torn-down or failed peer are dropped: the reader on that
// connection surfaces the loss. A payload over the frame bound panics (the
// receiver would reject it as malformed).
func (nw *netWorld) sendFrame(dst int, lane byte, tag int, data []float64, owned bool, shared *[]byte) {
	if len(data) > maxFrameElems {
		panic(fmt.Sprintf("comm: %d-element payload exceeds the %d-element frame bound", len(data), maxFrameElems))
	}
	p := nw.peers[dst]
	if p == nil || p.failed.Load() {
		if owned {
			nw.w.pool.put(data)
		}
		return
	}
	body := floatBytes(data)
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	if !p.busy && p.q.empty() {
		putHeader(p.hdr[:], frameFloats, lane, nw.self, tag, len(data))
		n = nw.writeInline(p, body)
	}
	if n == frameHeaderLen+len(body) || p.failed.Load() {
		if owned {
			nw.w.pool.put(data)
		}
		return
	}
	f := nw.newFrame(frameFloats, lane, tag, len(data))
	f.head = min(n, frameHeaderLen)
	rest := body[max(n-frameHeaderLen, 0):]
	switch {
	case owned:
		f.data, f.body = data, rest
	case shared != nil && len(rest) > 0:
		if *shared == nil {
			*shared = append([]byte(nil), body...)
		}
		f.body = (*shared)[len(body)-len(rest):]
	case len(rest) > 0:
		f.data = nw.w.pool.get((len(rest) + 7) / 8)
		f.body = floatBytes(f.data)[:len(rest)]
		copy(f.body, rest)
	}
	p.q.push(f)
}

// writeInline writes the frame in p.hdr and body into p's socket without
// waiting (at most inlineCap bytes of it when that seam is set) and returns
// the bytes the kernel took. The caller holds p.mu.
func (nw *netWorld) writeInline(p *netPeer, body []byte) int {
	hdr := p.hdr[:]
	if c := nw.inlineCap; c >= 0 {
		hdr = hdr[:min(c, len(hdr))]
		body = body[:min(c-len(hdr), len(body))]
	}
	n, failed := p.tw.write(hdr, body)
	if failed {
		p.failed.Store(true)
	}
	return n
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
	msg := []byte(err.Error())
	if len(msg) > maxAbortBytes {
		msg = msg[:maxAbortBytes]
	}
	for _, p := range nw.peers {
		if p == nil {
			continue
		}
		f := nw.newFrame(frameAbort, laneP2P, 0, len(msg))
		f.body = msg
		nw.enqueue(p, f)
	}
}

// writer is the per-peer send goroutine: it finishes the frames senders
// could not write inline. It gathers queued headers (or what is left of
// one), and the bodies that fit, in a pending buffer that goes out when the
// queue runs dry, coalescing bursts of small frames into few syscalls; a
// body that does not fit goes out in place, in one vectored write behind
// what is pending, so a wide payload is never copied again. It stays busy
// (see netPeer) from the frame it takes until the queue is empty and all of
// it is written. A write error is left for the reader on this connection to
// surface; the writer stops writing after it while the queue drains. Once
// stop closes it writes what is queued and exits.
func (nw *netWorld) writer(p *netPeer) {
	defer close(p.wdone)
	pending := make([]byte, 0, wireBuf)
	var vec [2][]byte
	var out net.Buffers
	write := func(tail []byte) {
		if !p.failed.Load() && len(pending)+len(tail) > 0 {
			vec[0], vec[1] = pending, tail
			out = vec[:]
			if _, err := out.WriteTo(p.conn); err != nil {
				p.failed.Store(true)
			}
		}
		pending = pending[:0]
	}
	stopping := false
	for {
		f, ok := p.next(len(pending) > 0)
		if !ok {
			if len(pending) > 0 {
				write(nil)
				continue
			}
			if stopping {
				return
			}
			select {
			case <-p.q.sig:
			case <-p.stop:
				stopping = true
			}
			continue
		}
		hdr := f.hdr[f.head:]
		if cap(pending)-len(pending) < len(hdr) {
			write(nil)
		}
		pending = append(pending, hdr...)
		if len(f.body) <= cap(pending)-len(pending) {
			pending = append(pending, f.body...)
		} else {
			write(f.body)
		}
		nw.release(f)
	}
}

// next takes the writer's next frame from p's queue. The writer is busy
// while it holds a frame or pending bytes, so a sender writes nothing inline
// until both are gone.
func (p *netPeer) next(pending bool) (*frame, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.q.tryPop()
	p.busy = ok || pending
	return f, ok
}

// reader is the per-peer receive goroutine: it reads frames off the
// connection through a buffered reader, payloads straight into pooled
// buffers, and lands them in the (src,lane) inbox. A connection failure
// before the peer's goodbye — or a malformed frame — aborts the world with a
// *RankError wrapping ErrPeerDisconnected: a killed, hung or corrupt peer
// surfaces as a typed error on every survivor instead of a deadlock.
func (nw *netWorld) reader(p *netPeer) {
	defer nw.markBye(p) // a vanished peer must not wedge Close's goodbye wait
	br := bufio.NewReaderSize(p.conn, wireBuf)
	hdr := make([]byte, frameHeaderLen)
	scratch := make([]byte, decodeChunk)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
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
			buf, err := nw.readFloats(br, scratch, count)
			if err != nil {
				nw.peerGone(p, err)
				return
			}
			nw.inboxes[src][lane].push(message{tag: tag, floats: buf})
		case frameAbort:
			s := scratch[:count]
			if _, err := io.ReadFull(br, s); err != nil {
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

// readFloats reads a count-element payload into a pooled buffer. A free
// buffer of the payload's class is read into at once; without one, the first
// decode chunk is read into scratch before anything is allocated, so a
// header alone never costs its declared size.
func (nw *netWorld) readFloats(br *bufio.Reader, scratch []byte, count int) ([]float64, error) {
	if count == 0 {
		return nil, nil
	}
	buf, ok := nw.w.pool.take(count)
	rest := floatBytes(buf)
	if !ok {
		first := scratch[:min(count*8, len(scratch))]
		if _, err := io.ReadFull(br, first); err != nil {
			return nil, err
		}
		buf = nw.w.pool.get(count)
		rest = floatBytes(buf)
		rest = rest[copy(rest, first):]
	}
	if _, err := io.ReadFull(br, rest); err != nil {
		nw.w.pool.put(buf)
		return nil, err
	}
	wireOrder(buf)
	return buf, nil
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
		nw.enqueue(p, nw.newFrame(frameGoodbye, laneP2P, 0, 0))
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
