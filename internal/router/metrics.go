package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"sagnn/internal/serve"
)

// ReplicaSnapshot is one replica's row in the aggregated metrics: the
// router's view (health, generation, routed sub-requests, ejections) plus
// the replica's own full serving snapshot when it is reachable.
type ReplicaSnapshot struct {
	Name        string          `json:"name"`
	Healthy     bool            `json:"healthy"`
	Generation  uint64          `json:"generation"`
	Ejects      uint64          `json:"ejects"`
	SubRequests uint64          `json:"sub_requests"`
	Serve       *serve.Snapshot `json:"serve,omitempty"` // nil when unreachable
}

// Snapshot is the router's GET /metrics document: fleet-level traffic and
// latency, routing behavior (splits, reroutes, generation retries), and
// the per-replica serving snapshots with their fleet-weighted aggregates —
// the cache hit rate and gather fraction the sharding exists to improve.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Policy        string  `json:"policy"`
	Replicas      int     `json:"replicas"`
	Healthy       int     `json:"healthy_replicas"`
	Generation    uint64  `json:"generation"` // fleet target

	Requests uint64  `json:"requests"`
	Failed   uint64  `json:"failed"`
	Shed     uint64  `json:"shed"`
	QPS      float64 `json:"qps"`

	Latency serve.LatencySnapshot `json:"latency"`

	Splits     uint64 `json:"splits"`             // requests split across >1 replica
	GenRetries uint64 `json:"generation_retries"` // merge-time generation conflicts retried whole
	Reroutes   uint64 `json:"reroutes"`           // sub-requests diverted off unhealthy/unreachable replicas
	Swaps      uint64 `json:"swaps"`              // completed rolling swaps

	InFlight    int64 `json:"in_flight"`
	MaxInFlight int   `json:"max_in_flight"`

	// FleetCacheHitRate is Σ hits / Σ (hits+misses) across replicas — the
	// number partition-aware routing multiplies by giving each replica its
	// own slice of the vertex space to cache.
	FleetCacheHitRate float64 `json:"fleet_cache_hit_rate"`
	// FleetGatherFraction is the batch-weighted mean of the per-replica
	// gathered-rows fraction — low when same-part receptive fields overlap.
	FleetGatherFraction float64 `json:"fleet_gather_fraction"`

	ReplicaStats []ReplicaSnapshot `json:"replica_stats"`
}

// Metrics assembles the aggregated fleet snapshot, probing every replica's
// /metrics endpoint for its serving counters.
func (rt *Router) Metrics(ctx context.Context) Snapshot {
	up := time.Since(rt.start).Seconds()
	snap := Snapshot{
		UptimeSeconds: up,
		Policy:        string(rt.cfg.Policy),
		Replicas:      len(rt.replicas),
		Generation:    rt.targetGen.Load(),
		Requests:      rt.requests.Load(),
		Failed:        rt.failed.Load(),
		Shed:          rt.shed.Load(),
		Splits:        rt.splits.Load(),
		GenRetries:    rt.genRetries.Load(),
		Reroutes:      rt.reroutes.Load(),
		Swaps:         rt.swaps.Load(),
		InFlight:      rt.inFlight.Load(),
		MaxInFlight:   rt.cfg.MaxInFlight,
		Latency:       rt.lat.Snapshot(),
	}
	if up > 0 {
		snap.QPS = float64(snap.Requests) / up
	}
	var hits, misses uint64
	var gatherWeighted float64
	var batches uint64
	for _, r := range rt.replicas {
		rs := ReplicaSnapshot{
			Name:        r.name,
			Healthy:     r.healthy.Load(),
			Generation:  r.gen.Load(),
			Ejects:      r.ejects.Load(),
			SubRequests: r.subRequests.Load(),
		}
		if rs.Healthy {
			snap.Healthy++
		}
		if sv, err := rt.replicaMetrics(ctx, r); err == nil {
			rs.Serve = sv
			hits += sv.Cache.Hits
			misses += sv.Cache.Misses
			gatherWeighted += float64(sv.Batch.Count) * sv.Batch.GatherRowFraction
			batches += sv.Batch.Count
		}
		snap.ReplicaStats = append(snap.ReplicaStats, rs)
	}
	if hits+misses > 0 {
		snap.FleetCacheHitRate = float64(hits) / float64(hits+misses)
	}
	if batches > 0 {
		snap.FleetGatherFraction = gatherWeighted / float64(batches)
	}
	return snap
}

// replicaMetrics fetches one replica's serving snapshot.
func (rt *Router) replicaMetrics(ctx context.Context, r *replica) (*serve.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics %d", resp.StatusCode)
	}
	var sv serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		return nil, err
	}
	return &sv, nil
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Metrics(r.Context()))
}

// FleetHealth is the router's GET /healthz document.
type FleetHealth struct {
	// Status is "ok" (all replicas serving), "degraded" (some down, fleet
	// still serving, still HTTP 200), or "down" (no healthy replicas, 503).
	Status     string `json:"status"`
	Replicas   int    `json:"replicas"`
	Healthy    int    `json:"healthy"`
	Generation uint64 `json:"generation"`
	Dataset    string `json:"dataset"`
	Vertices   int    `json:"vertices"`
	Classes    int    `json:"classes"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := FleetHealth{
		Replicas:   len(rt.replicas),
		Generation: rt.targetGen.Load(),
		Dataset:    rt.dataset,
		Vertices:   rt.vertices,
		Classes:    rt.classes,
	}
	for _, rep := range rt.replicas {
		if rep.healthy.Load() {
			h.Healthy++
		}
	}
	code := http.StatusOK
	switch {
	case rt.closed.Load() || h.Healthy == 0:
		h.Status, code = "down", http.StatusServiceUnavailable
	case h.Healthy < h.Replicas:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	writeJSON(w, code, h)
}
