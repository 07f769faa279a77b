package router

// Policy, PolicyPartition, Config.Policy, Config.PartOf and
// Snapshot's Splits and GenRetries are a compatibility shim: every request
// goes whole to one replica, so there is no policy, nothing is split and
// no reply is retried for its generation, and the benchmark module still
// compiles against these names. Config.Policy and Config.PartOf are
// ignored whatever their value, and the two counters are always zero and
// never appear in the /metrics document.

// Policy names a routing policy; the router has one.
type Policy string

// PolicyPartition is the one policy name the benchmark module still sets.
const PolicyPartition Policy = "partition"

// legacySnapshot carries the zero counters inside Snapshot.
type legacySnapshot struct {
	Splits     uint64 `json:"-"`
	GenRetries uint64 `json:"-"`
}
