package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"sagnn/internal/serve"
)

// ReplicaSnapshot is one replica's row in the aggregated metrics: the
// router's view (health, generation, forwarded requests, ejections) plus
// the replica's own full serving snapshot when it is reachable.
type ReplicaSnapshot struct {
	Name        string          `json:"name"`
	Healthy     bool            `json:"healthy"`
	Generation  uint64          `json:"generation"`
	Ejects      uint64          `json:"ejects"`
	SubRequests uint64          `json:"sub_requests"`    // requests forwarded here
	Serve       *serve.Snapshot `json:"serve,omitempty"` // nil when unreachable
}

// Snapshot is the router's GET /metrics document: fleet-level traffic and
// latency, reroutes and swaps, and the per-replica serving snapshots.
type Snapshot struct {
	serve.FrontSnapshot // fleet traffic, and admission under "admission"
	legacySnapshot      // always zero (compat.go)

	Replicas   int    `json:"replicas"`
	Healthy    int    `json:"healthy_replicas"`
	Generation uint64 `json:"generation"` // fleet target

	Reroutes uint64 `json:"reroutes"` // requests diverted off ejected or unreachable replicas
	Swaps    uint64 `json:"swaps"`    // completed rolling swaps

	ReplicaStats []ReplicaSnapshot `json:"replica_stats"`
}

// Metrics assembles the aggregated fleet snapshot, probing every replica's
// /metrics endpoint for its serving counters.
func (rt *Router) Metrics(ctx context.Context) Snapshot {
	snap := Snapshot{
		FrontSnapshot: rt.front.Snapshot(),
		Replicas:      len(rt.replicas),
		Generation:    rt.targetGen.Load(),
		Reroutes:      rt.reroutes.Load(),
		Swaps:         rt.swaps.Load(),
	}
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
		}
		snap.ReplicaStats = append(snap.ReplicaStats, rs)
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
	serve.WriteJSON(w, http.StatusOK, rt.Metrics(r.Context()))
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
	serve.WriteJSON(w, code, h)
}
