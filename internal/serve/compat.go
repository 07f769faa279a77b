package serve

// Config.CacheSize, Snapshot.Cache and Snapshot.Batch are a compatibility
// shim: a generation's answers are one table, so there is no cache and no
// batch, and the benchmark module still compiles against these names.
// CacheSize is ignored whatever its value, and the two blocks are always
// zero and never appear in the /metrics document.

// CacheSnapshot is always zero.
type CacheSnapshot struct {
	Hits, Misses uint64
}

// BatchSnapshot is always zero.
type BatchSnapshot struct {
	Count                          uint64
	AvgRequests, GatherRowFraction float64
}

// legacySnapshot carries the zero blocks inside Snapshot.
type legacySnapshot struct {
	Cache CacheSnapshot `json:"-"`
	Batch BatchSnapshot `json:"-"`
}
