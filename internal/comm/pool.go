package comm

// bufPool is a per-world free list of float payload buffers. Every message
// in flight — a Send's copy, a collective's per-member payloads, a decoded
// wire frame — sits in a pooled buffer that the receiving primitive recycles
// once it has copied the payload out, and what an outgoing wire frame's
// inline write left over sits in one its peer's writer recycles, so
// steady-state training reuses a fixed set of transport buffers instead of
// allocating and GC-ing one per message.
//
// Ownership discipline:
//
//   - Send and the collectives lend the caller's payload: before they
//     return, the mailboxes copy it, and the wire writes it into the socket
//     and copies whatever the socket did not take.
//   - SendOwned transfers the caller's buffer itself — the caller must have
//     obtained it from GetFloats and must not touch it afterwards.
//   - RecvInto and the Into collectives copy the payload into a
//     caller-supplied workspace and recycle the transport buffer
//     immediately — the zero-allocation path.
//
// Each free list is a buffered channel: channel operations do not allocate,
// so recycling is itself allocation-free (unlike sync.Pool, which boxes the
// slice header on every Put). There is one list per power-of-two capacity,
// so a request is served by a buffer of its own size class or a fresh one of
// exactly that class — a two-element loss reduction never pins the 4 MB
// buffer the next wide exchange needs.
type bufPool struct {
	classes [poolClasses]chan []float64 // classes[c] holds capacity minPooled<<c
}

const (
	minPooled   = 64  // smallest pooled capacity: avoids churning tiny buffers
	poolClasses = 26  // up to minPooled<<25 = 2³¹ elements
	poolDepth   = 256 // free buffers kept per class; the rest are left to the GC
)

func newBufPool() bufPool {
	var p bufPool
	for c := range p.classes {
		p.classes[c] = make(chan []float64, poolDepth)
	}
	return p
}

// sizeClass returns the smallest class whose capacity holds n elements.
func sizeClass(n int) int {
	c := 0
	for minPooled<<c < n {
		c++
	}
	return c
}

// get returns a length-n buffer with unspecified contents.
func (p *bufPool) get(n int) []float64 {
	if b, ok := p.take(n); ok {
		return b
	}
	return make([]float64, n, minPooled<<sizeClass(n))
}

// take is get without the allocation: a free length-n buffer of n's class,
// or false when that class has none.
func (p *bufPool) take(n int) ([]float64, bool) {
	select {
	case b := <-p.classes[sizeClass(n)]:
		return b[:n], true
	default:
		return nil, false
	}
}

// put recycles a buffer into the largest class it can serve; drops it if
// that free list is full or the buffer is below the smallest class.
func (p *bufPool) put(b []float64) {
	if cap(b) < minPooled {
		return
	}
	c := sizeClass(cap(b))
	if minPooled<<c > cap(b) {
		c--
	}
	select {
	case p.classes[c] <- b[:0]:
	default:
	}
}

// GetFloats returns a length-n pooled buffer with unspecified contents,
// intended as a SendOwned payload or a scratch workspace.
func (r *Rank) GetFloats(n int) []float64 { return r.w.pool.get(n) }

// PutFloats recycles a buffer previously obtained from GetFloats. The caller
// must not use it afterwards.
func (r *Rank) PutFloats(b []float64) { r.w.pool.put(b) }
