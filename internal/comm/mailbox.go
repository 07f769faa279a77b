package comm

// transport is everything the communication layer asks of a backend:
// per-(src, dst, lane) FIFO delivery of tagged float payloads. Both
// implementations — mailboxes here, netWorld in transport.go — are
// abort-aware: a send or receive that would block past a world abort unwinds
// with the abortPanic sentinel instead.
type transport interface {
	// send delivers (tag, data) from world rank src to dst on lane. data is
	// borrowed until send returns; with owned set it is a pooled buffer the
	// transport takes over and recycles once delivered.
	send(src, dst int, lane byte, tag int, data []float64, owned bool)
	// recv blocks for the next message src sent to dst on lane. The payload
	// is a pooled buffer the caller recycles.
	recv(dst, src int, lane byte) message
	// drain recycles every undelivered payload after an aborted run.
	drain()
}

// Lanes are independent FIFO streams between each pair of ranks, so an async
// worker's pending RecvInto can never take a collective's message.
const (
	laneP2P  byte = 0 // Send/SendOwned ↔ RecvInto
	laneColl byte = 1 // group collectives
)

// Collective-lane tags: distinct per collective kind so a misordered stream
// surfaces as ErrTagMismatch instead of silent corruption.
const (
	tagBcast = -(101 + iota)
	tagAllReduce
	tagAllToAllv
	tagCalibrate
)

// MailboxDepth is the per-(src,dst) eager-send buffering of each in-process
// lane: a sender never blocks until this many messages are in flight to a
// single receiver. Exported so the static plan verifier (distmm.Verify) can
// prove a compiled schedule's per-pair send bursts fit the buffering — the
// premise under which sends are modeled as non-blocking in the
// happens-before analysis.
const MailboxDepth = 64

// mailboxes is the in-process transport: one bounded channel per
// (lane, dst, src), every rank a goroutine of this process.
type mailboxes struct {
	w    *World
	mail [2][][]chan message // mail[lane][dst][src]
}

func newMailboxes(w *World) *mailboxes {
	mb := &mailboxes{w: w}
	for lane := range mb.mail {
		mb.mail[lane] = make([][]chan message, w.P)
		for d := range mb.mail[lane] {
			mb.mail[lane][d] = make([]chan message, w.P)
			for s := range mb.mail[lane][d] {
				mb.mail[lane][d][s] = make(chan message, MailboxDepth)
			}
		}
	}
	return mb
}

// send enqueues the payload (copied into a pooled buffer unless owned) for
// dst, blocking only while the mailbox is full; an abort meanwhile unwinds
// with the abortPanic panic.
func (mb *mailboxes) send(src, dst int, lane byte, tag int, data []float64, owned bool) {
	if !owned {
		var cp []float64 // an empty payload travels as nil, never as the caller's array
		if len(data) > 0 {
			cp = mb.w.pool.get(len(data))
			copy(cp, data)
		}
		data = cp
	}
	box, m := mb.mail[lane][dst][src], message{tag: tag, floats: data}
	select {
	case box <- m:
		return
	default:
	}
	select {
	case box <- m:
	case <-mb.w.abortCh.Load().ch:
		mb.w.pool.put(data)
		panic(abortPanic{})
	}
}

// recv dequeues the next message from src, blocking while the mailbox is
// empty; an abort meanwhile unwinds with the abortPanic panic.
func (mb *mailboxes) recv(dst, src int, lane byte) message {
	box := mb.mail[lane][dst][src]
	select {
	case m := <-box:
		return m
	default:
	}
	select {
	case m := <-box:
		return m
	case <-mb.w.abortCh.Load().ch:
		panic(abortPanic{})
	}
}

// drain empties every mailbox back into the buffer pool (World.reset: no
// rank is running).
func (mb *mailboxes) drain() {
	for lane := range mb.mail {
		for _, row := range mb.mail[lane] {
			for _, box := range row {
				for len(box) > 0 {
					mb.w.pool.put((<-box).floats)
				}
			}
		}
	}
}
