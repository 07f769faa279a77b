package serve

import (
	"sync"
	"testing"
	"time"
)

// TestLatencyRingQuantiles pins the exact quantile indices on a known
// distribution: observing 1..1000 ms, p50 is the 500th sorted sample and
// p99 the 990th — the p99 the CI SLO gate compares against its budget.
func TestLatencyRingQuantiles(t *testing.T) {
	r := NewLatencyRing(2048)
	for i := 1; i <= 1000; i++ {
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	p50, p99, n := r.Quantiles()
	if n != 1000 {
		t.Fatalf("samples = %d, want 1000", n)
	}
	if p50 != 500 {
		t.Fatalf("p50 = %v ms, want 500", p50)
	}
	if p99 != 990 {
		t.Fatalf("p99 = %v ms, want 990", p99)
	}
}

// TestLatencyRingWindowSlides pins that the ring keeps only the newest
// capacity samples: after overflowing a 4-slot ring with 1..8 ms, the
// window is {5,6,7,8}.
func TestLatencyRingWindowSlides(t *testing.T) {
	r := NewLatencyRing(4)
	for i := 1; i <= 8; i++ {
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	p50, p99, n := r.Quantiles()
	if n != 4 {
		t.Fatalf("samples = %d, want 4", n)
	}
	// The estimator floors the rank index: at 4 samples p99 reads
	// sorted[int(0.99*3)] = sorted[2].
	if p50 != 6 || p99 != 7 {
		t.Fatalf("p50/p99 = %v/%v ms, want 6/7", p50, p99)
	}
}

// TestMetricsConcurrentWritersAndSnapshots hammers every metrics writer
// from many goroutines while snapshot readers run — the -race CI pass
// turns any unsynchronized access into a failure — then checks the
// aggregate counters and that the quantiles summarize every sample the
// sliding window can hold.
func TestMetricsConcurrentWritersAndSnapshots(t *testing.T) {
	m := NewMetrics()
	// 8 × 600 = 4800 observations overflow the 4096-sample ring, so the
	// final snapshot must report a full sliding window.
	const writers, perWriter = 8, 600
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.requests.Add(1)
				m.vertices.Add(3)
				m.cacheHits.Add(2)
				m.cacheMisses.Add(1)
				m.shed.Add(1)
				m.lat.Observe(time.Duration(w*perWriter+i+1) * time.Microsecond)
			}
		}(w)
	}
	// Concurrent snapshot readers: quantiles sort a copy under the ring
	// mutex, so these must be safe alongside the writers.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for i := 0; i < 200; i++ {
			snap := m.snapshot(0, 0, 1, -1, 100, 0, 1024)
			if snap.Latency.P99Ms < snap.Latency.P50Ms {
				t.Errorf("p99 %v < p50 %v", snap.Latency.P99Ms, snap.Latency.P50Ms)
				return
			}
		}
	}()
	wg.Wait()
	<-readDone

	snap := m.snapshot(5, 16, 2, 3, 100, 1, 1024)
	total := uint64(writers * perWriter)
	if snap.Requests != total || snap.Vertices != 3*total || snap.Admission.Shed != total {
		t.Fatalf("counters: requests %d vertices %d shed %d, want %d/%d/%d",
			snap.Requests, snap.Vertices, snap.Admission.Shed, total, 3*total, total)
	}
	if want := float64(2*total) / float64(3*total); snap.Cache.HitRate != want {
		t.Fatalf("hit rate = %v, want %v", snap.Cache.HitRate, want)
	}
	if snap.Latency.Samples != latencyWindow {
		t.Fatalf("latency samples = %d, want full window %d", snap.Latency.Samples, latencyWindow)
	}
	if snap.Latency.P99Ms <= 0 || snap.Latency.P99Ms < snap.Latency.P50Ms {
		t.Fatalf("quantiles p50 %v p99 %v", snap.Latency.P50Ms, snap.Latency.P99Ms)
	}
}
