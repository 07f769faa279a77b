package serve

import "sync/atomic"

// Metrics aggregates the replica's own serving counters beside its Front's
// traffic and admission: vertex throughput, micro-batch occupancy, gather
// volume, cache effectiveness and swaps. All counters are atomics, so the
// hot path records allocation-free.
type Metrics struct {
	vertices atomic.Uint64 // vertices across successful calls

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	batches       atomic.Uint64 // executed inference batches
	batchRequests atomic.Uint64 // requests coalesced into them
	batchVertices atomic.Uint64 // distinct vertices across them
	gatherRows    atomic.Uint64 // rows of Â·X gathered across them

	swaps atomic.Uint64 // model hot-swaps
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

// ModelSnapshot identifies the serving model state.
type ModelSnapshot struct {
	Generation uint64 `json:"generation"`
	Epoch      int    `json:"epoch"` // checkpoint epoch, -1 for a bare model
	Swaps      uint64 `json:"swaps"`
}

// Snapshot is the JSON document the /metrics endpoint returns: the front's
// traffic and admission, then the replica's own blocks.
type Snapshot struct {
	FrontSnapshot
	Vertices uint64        `json:"vertices"`
	Cache    CacheSnapshot `json:"cache"`
	Batch    BatchSnapshot `json:"batch"`
	Model    ModelSnapshot `json:"model"`
}

// snapshot assembles the exported view; the server passes in its front's
// snapshot and the state facts (cache occupancy, generation) metrics does
// not own.
func (m *Metrics) snapshot(front FrontSnapshot, cacheLen, cacheCap int, generation uint64, epoch, graphVertices int) Snapshot {
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
	return Snapshot{
		FrontSnapshot: front,
		Vertices:      m.vertices.Load(),
		Cache:         CacheSnapshot{Hits: hits, Misses: misses, HitRate: hitRate, Size: cacheLen, Capacity: cacheCap},
		Batch:         bs,
		Model:         ModelSnapshot{Generation: generation, Epoch: epoch, Swaps: m.swaps.Load()},
	}
}
