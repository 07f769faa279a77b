package comm

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"sagnn/internal/machine"
)

// rawFrame builds one wire frame from rank 1 for the fuzz corpus.
func rawFrame(kind, lane byte, tag, count int, payload []byte) []byte {
	b := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	putHeader(b, kind, lane, 1, tag, count)
	return append(b, payload...)
}

// FuzzFrameReader feeds arbitrary bytes to the per-peer reader as if they
// came off rank 1's connection, then drops the connection. Whatever the
// bytes, the reader must not panic, must end in either a clean goodbye or a
// typed abort naming the peer, and must not allocate on the strength of a
// header alone: below one decode chunk of input, memory stays proportional
// to the bytes actually received however large the declared count.
func FuzzFrameReader(f *testing.F) {
	f.Add(rawFrame(frameFloats, laneColl, tagBcast, 2, make([]byte, 16)))
	f.Add(rawFrame(frameFloats, laneP2P, 7, 0, nil))
	f.Add(rawFrame(frameFloats, laneP2P, 7, maxFrameElems, make([]byte, 64))) // truncated giant
	f.Add(rawFrame(frameFloats, laneP2P, 7, maxFrameElems+1, nil))            // over the bound
	f.Add(rawFrame(frameFloats, laneP2P, 7, -1, nil))                         // negative count
	f.Add(rawFrame(frameAbort, laneP2P, 0, maxAbortBytes+1, nil))             // oversize cause
	f.Add(rawFrame(frameAbort, laneP2P, 0, 4, []byte("boom")))                // peer abort
	f.Add(append(rawFrame(frameGoodbye, laneP2P, 0, 0, nil), 0xff))           // bytes after goodbye
	f.Add(rawFrame(frameFloats, 9, 0, 0, nil))                                // bad lane
	f.Add(rawFrame(99, laneP2P, 0, 0, nil))                                   // unknown kind
	f.Add([]byte{frameFloats, laneP2P, 0, 0, 0, 0})                           // short header
	f.Add(append(rawFrame(frameFloats, laneColl, tagAllReduce, 1, make([]byte, 8)), rawFrame(frameFloats, laneColl, tagAllReduce, 1<<20, nil)...))
	// A frame past one decode chunk, the same one byte short, and the same
	// followed by a truncated giant of its size class.
	wide := rawFrame(frameFloats, laneColl, tagBcast, decodeChunk/8+1, make([]byte, decodeChunk+8))
	f.Add(wide)
	f.Add(wide[:len(wide)-1])
	f.Add(append(wide, rawFrame(frameFloats, laneColl, tagBcast, decodeChunk/4, make([]byte, 64))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		w := newWorld(2, machine.Perlmutter())
		nw := newNetWorld(w, 0, []string{"", ""})
		// As in a running world, the pool holds free buffers of one class,
		// so frames of that class are read straight into a free buffer and
		// the rest take the allocate-after-the-first-chunk path.
		for i := 0; i < 2; i++ {
			w.pool.put(make([]float64, 0, minPooled<<sizeClass(decodeChunk/8+1)))
		}
		ours, theirs := net.Pipe()
		p := newNetPeer(1, ours)
		nw.peers[1] = p
		nw.byeWG.Add(1)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read, written := make(chan struct{}), make(chan struct{})
		go func() { defer close(read); nw.reader(p) }()
		go func() { defer close(written); theirs.Write(data); theirs.Close() }()
		select {
		case <-read:
		case <-time.After(chaosTimeout):
			t.Fatal("reader still running after its connection closed")
		}
		runtime.ReadMemStats(&after)
		ours.Close() // releases a writer the reader stopped listening to
		<-written

		if cause := w.abortCause(); cause != nil {
			var re *RankError
			if !errors.As(cause, &re) || re.Rank != 1 ||
				!(errors.Is(cause, ErrPeerDisconnected) || errors.Is(cause, ErrPeerAborted)) {
				t.Fatalf("abort is not a typed peer failure: %v", cause)
			}
		} else if !p.saidBye.Load() {
			t.Fatal("reader returned with neither a goodbye nor an abort")
		}
		for lane := range nw.inboxes[1] {
			for _, m := range nw.inboxes[1][lane].q {
				if len(m.floats) > maxFrameElems || len(m.floats)*8 > len(data) {
					t.Fatalf("delivered %d elements from %d input bytes", len(m.floats), len(data))
				}
			}
		}
		if len(data) < decodeChunk {
			// Pooled capacities round up to a power of two ≥ 64 elements, so
			// a stream of one-element frames costs ~24× its bytes; the
			// constant covers the scratch chunk and the runtime's own noise.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+decodeChunk+(1<<20)); got > limit {
				t.Fatalf("reader allocated %d bytes for %d input bytes (limit %d)", got, len(data), limit)
			}
		}
	})
}
