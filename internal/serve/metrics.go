package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyWindow bounds the per-request latency samples kept for quantile
// estimation; a ring this size covers minutes of heavy traffic while
// keeping the /metrics sort cheap.
const latencyWindow = 4096

// LatencyRing is a fixed-capacity sliding window of request latencies with
// quantile estimation — the p50/p99 source behind /metrics, factored out so
// the fleet router reports its end-to-end quantiles with the same machinery
// (and the same SLO-gate semantics) as a single replica. Observing is
// allocation-free after the ring fills; safe for concurrent use.
type LatencyRing struct {
	mu      sync.Mutex
	cap     int
	samples []float64 // milliseconds
	next    int
}

// NewLatencyRing returns a ring keeping the last capacity samples
// (capacity < 1 selects the default window of 4096).
func NewLatencyRing(capacity int) *LatencyRing {
	if capacity < 1 {
		capacity = latencyWindow
	}
	return &LatencyRing{cap: capacity, samples: make([]float64, 0, capacity)}
}

// Observe records one latency into the sliding window.
func (r *LatencyRing) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, ms)
	} else {
		r.samples[r.next] = ms
	}
	r.next = (r.next + 1) % r.cap
	r.mu.Unlock()
}

// Quantiles returns the p50 and p99 of the current window in milliseconds,
// plus the number of samples they summarize (0, 0, 0 when empty).
func (r *LatencyRing) Quantiles() (p50, p99 float64, count int) {
	r.mu.Lock()
	sorted := append([]float64(nil), r.samples...)
	r.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.99), len(sorted)
}

// Snapshot is Quantiles as the latency block of a /metrics document.
func (r *LatencyRing) Snapshot() LatencySnapshot {
	p50, p99, samples := r.Quantiles()
	return LatencySnapshot{P50Ms: p50, P99Ms: p99, Samples: samples}
}

// Metrics aggregates the serving counters the ops endpoints report:
// request/vertex throughput, latency quantiles over a sliding window,
// micro-batch occupancy, gather volume, and cache effectiveness. All
// counters are atomics; observing a latency takes one short mutex on the
// sample ring. Recording is allocation-free, so the hot path can call it.
type Metrics struct {
	start time.Time

	requests atomic.Uint64 // successfully served /predict calls
	failed   atomic.Uint64 // rejected or errored calls
	vertices atomic.Uint64 // vertices across successful calls

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	batches       atomic.Uint64 // executed inference batches
	batchRequests atomic.Uint64 // requests coalesced into them
	batchVertices atomic.Uint64 // distinct vertices across them
	gatherRows    atomic.Uint64 // rows of Â·X gathered across them

	swaps atomic.Uint64 // model hot-swaps

	shed   atomic.Uint64 // requests refused by admission control (503)
	panics atomic.Uint64 // inference panics isolated to their batch

	lat *LatencyRing
}

// NewMetrics returns a zeroed metrics set anchored at now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), lat: NewLatencyRing(latencyWindow)}
}

// LatencySnapshot is the quantile block of a metrics snapshot.
type LatencySnapshot struct {
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
}

// CacheSnapshot reports cache effectiveness for the current model state.
type CacheSnapshot struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
	Size     int     `json:"size"`
	Capacity int     `json:"capacity"`
}

// BatchSnapshot reports micro-batch coalescing effectiveness.
type BatchSnapshot struct {
	Count             uint64  `json:"count"`
	AvgRequests       float64 `json:"avg_requests"` // occupancy: requests per executed batch
	AvgVertices       float64 `json:"avg_vertices"`
	AvgGatheredRows   float64 `json:"avg_gathered_rows"`
	GatherRowFraction float64 `json:"gather_row_fraction"` // gathered rows / graph vertices
}

// AdmissionSnapshot reports overload behavior: live occupancy against the
// in-flight limit, requests shed with 503, and inference panics that were
// isolated to their batch.
type AdmissionSnapshot struct {
	InFlight    int64  `json:"in_flight"`
	MaxInFlight int    `json:"max_in_flight"` // <= 0 means unlimited
	Shed        uint64 `json:"shed"`
	Panics      uint64 `json:"panics"`
}

// ModelSnapshot identifies the serving model state.
type ModelSnapshot struct {
	Generation uint64 `json:"generation"`
	Epoch      int    `json:"epoch"` // checkpoint epoch, -1 for a bare model
	Swaps      uint64 `json:"swaps"`
}

// Snapshot is the JSON document the /metrics endpoint returns.
type Snapshot struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      uint64            `json:"requests"`
	Failed        uint64            `json:"failed"`
	QPS           float64           `json:"qps"`
	Vertices      uint64            `json:"vertices"`
	Latency       LatencySnapshot   `json:"latency"`
	Cache         CacheSnapshot     `json:"cache"`
	Batch         BatchSnapshot     `json:"batch"`
	Admission     AdmissionSnapshot `json:"admission"`
	Model         ModelSnapshot     `json:"model"`
}

// snapshot assembles the exported view; the server passes in the state
// facts (cache occupancy, generation) metrics does not own.
func (m *Metrics) snapshot(cacheLen, cacheCap int, generation uint64, epoch, graphVertices int, inFlight int64, maxInFlight int) Snapshot {
	up := time.Since(m.start).Seconds()
	req := m.requests.Load()
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	batches := m.batches.Load()
	bs := BatchSnapshot{Count: batches}
	if batches > 0 {
		bs.AvgRequests = float64(m.batchRequests.Load()) / float64(batches)
		bs.AvgVertices = float64(m.batchVertices.Load()) / float64(batches)
		bs.AvgGatheredRows = float64(m.gatherRows.Load()) / float64(batches)
		if graphVertices > 0 {
			bs.GatherRowFraction = bs.AvgGatheredRows / float64(graphVertices)
		}
	}
	qps := 0.0
	if up > 0 {
		qps = float64(req) / up
	}
	return Snapshot{
		UptimeSeconds: up,
		Requests:      req,
		Failed:        m.failed.Load(),
		QPS:           qps,
		Vertices:      m.vertices.Load(),
		Latency:       m.lat.Snapshot(),
		Cache:         CacheSnapshot{Hits: hits, Misses: misses, HitRate: hitRate, Size: cacheLen, Capacity: cacheCap},
		Batch:         bs,
		Admission:     AdmissionSnapshot{InFlight: inFlight, MaxInFlight: maxInFlight, Shed: m.shed.Load(), Panics: m.panics.Load()},
		Model:         ModelSnapshot{Generation: generation, Epoch: epoch, Swaps: m.swaps.Load()},
	}
}
