package comm

// transport is everything the communication layer asks of a backend:
// per-(src, dst, lane) FIFO delivery of tagged float payloads. Neither
// implementation ever waits in a send: the mailboxes here push into the
// receiver's unbounded inbox, and the wire (netWorld, transport.go) writes
// what the socket takes at once and queues the rest for a writer goroutine
// without bound. Both land received messages in the same inbox type, and a
// receive that would block past a world abort unwinds with the abortPanic
// sentinel.
type transport interface {
	// send delivers (tag, data) from world rank src to dst on lane. data is
	// borrowed until send returns — the mailboxes copy it, the wire writes
	// it or copies what it could not write — and with owned set it is a
	// pooled buffer the transport takes over and recycles once delivered
	// (the mailboxes) or written (the wire).
	send(src, dst int, lane byte, tag int, data []float64, owned bool)
	// sendMany delivers (tag, data) from src to every rank of dsts except
	// src itself, in dsts order, on lane; data is borrowed until it returns.
	sendMany(src int, dsts []int, lane byte, tag int, data []float64)
	// recv blocks for the next message src sent to dst on lane. The payload
	// is a pooled buffer the caller recycles.
	recv(dst, src int, lane byte) message
	// drain recycles every undelivered payload after an aborted run.
	drain()
}

// Lanes are independent FIFO streams between each pair of ranks, so a
// point-to-point receive can never take a collective's message.
const (
	laneP2P  byte = 0 // Send ↔ TryRecvInto: calibration's ping-pong, the benchmark's ping rung
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

// mailboxes is the in-process transport: every rank a goroutine of this
// process, and one inbox per (dst, src, lane) — the queue the wire's readers
// land frames in.
type mailboxes struct {
	w    *World
	mail [][][2]inbox // mail[dst][src][lane]
}

func newMailboxes(w *World) *mailboxes {
	mb := &mailboxes{w: w, mail: make([][][2]inbox, w.P)}
	for d := range mb.mail {
		mb.mail[d] = newInboxes(w.P)
	}
	return mb
}

// send enqueues the payload for dst, copied into a pooled buffer unless
// owned.
func (mb *mailboxes) send(src, dst int, lane byte, tag int, data []float64, owned bool) {
	if !owned {
		var cp []float64 // an empty payload travels as nil, never as the caller's array
		if len(data) > 0 {
			cp = mb.w.pool.get(len(data))
			copy(cp, data)
		}
		data = cp
	}
	mb.mail[dst][src][lane].push(message{tag: tag, floats: data})
}

// sendMany gives every destination its own pooled copy, as send does.
func (mb *mailboxes) sendMany(src int, dsts []int, lane byte, tag int, data []float64) {
	for _, d := range dsts {
		if d != src {
			mb.send(src, d, lane, tag, data, false)
		}
	}
}

// recv dequeues the next message from src (see recvOrUnwind).
func (mb *mailboxes) recv(dst, src int, lane byte) message {
	return recvOrUnwind(&mb.mail[dst][src][lane], mb.w)
}

// drain empties every inbox back into the buffer pool (World.reset: no rank
// is running).
func (mb *mailboxes) drain() {
	for _, row := range mb.mail {
		drainInboxes(row, &mb.w.pool)
	}
}
