package serve

import "sync/atomic"

// Metrics aggregates the replica's own serving counters beside its Front's
// traffic and admission: vertex throughput and swaps. Both are atomics, so
// the hot path records allocation-free.
type Metrics struct {
	vertices atomic.Uint64 // vertices across successful calls
	swaps    atomic.Uint64 // model hot-swaps
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
	Model    ModelSnapshot `json:"model"`
	legacySnapshot
}

// snapshot assembles the exported view; the server passes in its front's
// snapshot and the state facts (generation, epoch) metrics does not own.
func (m *Metrics) snapshot(front FrontSnapshot, generation uint64, epoch int) Snapshot {
	return Snapshot{
		FrontSnapshot: front,
		Vertices:      m.vertices.Load(),
		Model:         ModelSnapshot{Generation: generation, Epoch: epoch, Swaps: m.swaps.Load()},
	}
}
