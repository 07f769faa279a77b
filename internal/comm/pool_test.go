package comm

import (
	"testing"

	"sagnn/internal/machine"
)

// TestPoolRecyclesBuffers pins the free-list semantics: a returned buffer
// is handed back for the next request of its size class instead of
// allocating, and never for a request of another class.
func TestPoolRecyclesBuffers(t *testing.T) {
	p := newBufPool()
	b1 := p.get(40)
	p.put(b1)
	b2 := p.get(8) // same class: reuses the same backing array
	if &b1[:1][0] != &b2[:1][0] {
		t.Fatal("pool did not recycle the buffer")
	}
	if len(b2) != 8 {
		t.Fatalf("len %d, want 8", len(b2))
	}
	p.put(b2)
	b3 := p.get(1 << 20) // another class: a fresh allocation of that class
	if &b3[:1][0] == &b1[:1][0] || cap(b3) != 1<<20 {
		t.Fatalf("pool served a %d-element request with capacity %d", 1<<20, cap(b3))
	}
	p = newBufPool()
	p.put(make([]float64, 100)) // odd capacity: files under the class it can serve
	if b4 := p.get(64); cap(b4) != 100 {
		t.Fatalf("capacity-100 buffer not reused for the 64-class: got cap %d", cap(b4))
	}
	// RecvInto recycles transport buffers into the world pool: after a
	// Send → RecvInto cycle the message's class must be non-empty.
	w := NewWorld(2, machine.Perlmutter())
	w.Run(func(r *Rank) {
		dst := make([]float64, 4)
		if r.ID == 0 {
			r.Send(1, 0, []float64{4, 5, 6, 7}, "p2p")
		} else {
			r.RecvInto(0, 0, dst)
		}
	})
	if len(w.pool.classes[sizeClass(4)]) == 0 {
		t.Fatal("RecvInto did not recycle the transport buffer")
	}
}
