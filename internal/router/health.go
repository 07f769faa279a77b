package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"sagnn/internal/retry"
	"sagnn/internal/serve"
)

// probe asks one replica's /healthz for its typed health document. A
// panicked handler, an undecodable document or a non-200 is a failed probe.
func (rt *Router) probe(ctx context.Context, r *replica) (serve.Health, error) {
	res := r.call(ctx, http.MethodGet, "/healthz", nil)
	if res.err != nil {
		return serve.Health{}, res.err
	}
	var h serve.Health
	if err := json.Unmarshal(res.body, &h); err != nil {
		return serve.Health{}, fmt.Errorf("decoding healthz: %w", err)
	}
	if res.status != http.StatusOK {
		return h, fmt.Errorf("healthz %d (%s)", res.status, h.Status)
	}
	return h, nil
}

// healthLoop probes every replica each HealthInterval, ejecting after
// ejectAfter consecutive failures and readmitting after readmitAfter
// consecutive successes — but never before catching a stale replica up to
// the fleet generation, so a replica that slept through a rolling swap
// cannot rejoin serving the old model.
func (rt *Router) healthLoop(ctx context.Context) {
	defer close(rt.healthDone)
	for {
		// Constant-interval wait through the centralized backoff funnel
		// (attempt 1 = base delay), honoring Close's cancellation.
		if err := retry.Sleep(ctx, rt.cfg.HealthInterval, 1); err != nil {
			return
		}
		for _, r := range rt.replicas {
			rt.checkReplica(ctx, r)
		}
	}
}

// checkReplica runs one probe cycle of the eject/readmit state machine.
func (rt *Router) checkReplica(ctx context.Context, r *replica) {
	h, err := rt.probe(ctx, r)
	if err == nil {
		r.gen.Store(h.Generation)
	}
	if r.healthy.Load() {
		if err != nil {
			r.fails++
			r.oks = 0
			if r.fails >= ejectAfter {
				r.healthy.Store(false)
				r.ejects.Add(1)
			}
		} else {
			r.fails = 0
		}
		return
	}
	// Ejected: count consecutive successes toward readmission. A killed
	// replica stays out for good (its probes fail anyway once closed).
	if err != nil || r.killed.Load() {
		r.oks = 0
		return
	}
	r.oks++
	if r.oks < readmitAfter {
		return
	}
	// Generation catch-up before readmission: re-push the latest swap
	// artifact to a replica that missed it. Failure keeps it ejected —
	// better one replica down than mixed generations in the fleet.
	if art := rt.artifact.Load(); art != nil && h.Generation < art.gen {
		if _, err := rt.pushSwap(ctx, r, art.data, art.gen); err != nil {
			r.oks = 0
			return
		}
	}
	r.fails, r.oks = 0, 0
	r.healthy.Store(true)
}
