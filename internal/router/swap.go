package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"sagnn/internal/serve"
)

// replicaSwap is one replica's outcome in a rolling swap.
type replicaSwap struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation,omitempty"`
	Skipped    bool   `json:"skipped,omitempty"` // ejected at swap time; caught up at readmission
	Error      string `json:"error,omitempty"`
}

// swapResponse is the POST /admin/swap reply.
type swapResponse struct {
	Generation uint64        `json:"generation"` // fleet target after the roll
	Epoch      int           `json:"epoch"`
	Replicas   []replicaSwap `json:"replicas"`
}

// pushSwap posts a model artifact to one replica and verifies — via a
// fresh health probe — that the replica actually serves the expected
// generation before the roll moves on.
func (rt *Router) pushSwap(ctx context.Context, r *replica, data []byte, wantGen uint64) error {
	_, err := rt.pushSwapWithEpoch(ctx, r, data, wantGen)
	return err
}

// handleSwap orchestrates a rolling hot-swap: the model artifact fans out
// replica-by-replica, each push verified against the replica's reported
// generation before the next one starts, so at most one replica is
// mid-swap at any instant and clients keep being served throughout (each
// reply comes whole from one replica's table, so it carries one model).
// Ejected replicas are skipped and caught up at readmission. A
// failed push aborts the roll with 502 and the per-replica outcomes; the
// fleet target generation only advances when every in-service replica
// swapped.
func (rt *Router) handleSwap(w http.ResponseWriter, r *http.Request) {
	if !serve.PostOnly(w, r) {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading model: %w", err))
		return
	}
	rt.swapMu.Lock()
	defer rt.swapMu.Unlock()
	wantGen := rt.targetGen.Load() + 1
	out := swapResponse{Generation: wantGen}
	epochSet := false
	for _, rep := range rt.replicas {
		if !rep.healthy.Load() {
			out.Replicas = append(out.Replicas, replicaSwap{Name: rep.name, Skipped: true})
			continue
		}
		epoch, err := rt.pushSwapWithEpoch(r.Context(), rep, data, wantGen)
		if err != nil {
			out.Replicas = append(out.Replicas, replicaSwap{Name: rep.name, Error: err.Error()})
			serve.WriteJSON(w, http.StatusBadGateway, out)
			return
		}
		if !epochSet {
			out.Epoch, epochSet = epoch, true
		}
		out.Replicas = append(out.Replicas, replicaSwap{Name: rep.name, Generation: wantGen})
	}
	rt.artifact.Store(&swapArtifact{data: data, gen: wantGen})
	rt.targetGen.Store(wantGen)
	rt.swaps.Add(1)
	serve.WriteJSON(w, http.StatusOK, out)
}

// pushSwapWithEpoch is pushSwap plus the checkpoint epoch the replica
// reported — the swap response surfaces it for lineage.
func (rt *Router) pushSwapWithEpoch(ctx context.Context, r *replica, data []byte, wantGen uint64) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/admin/swap", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		doc, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return 0, fmt.Errorf("swap on %s: %d: %s", r.name, resp.StatusCode, bytes.TrimSpace(doc))
	}
	var sr struct {
		Generation uint64 `json:"generation"`
		Epoch      int    `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return 0, fmt.Errorf("decoding swap response of %s: %w", r.name, err)
	}
	if sr.Generation != wantGen {
		return 0, fmt.Errorf("%s swapped to generation %d, want %d", r.name, sr.Generation, wantGen)
	}
	h, err := rt.probe(ctx, r)
	if err != nil {
		return 0, fmt.Errorf("verifying %s after swap: %w", r.name, err)
	}
	if h.Generation != wantGen {
		return 0, fmt.Errorf("%s reports generation %d after swapping to %d", r.name, h.Generation, wantGen)
	}
	r.gen.Store(wantGen)
	return sr.Epoch, nil
}

// handleKill is the chaos hook: POST /admin/kill?replica=i terminates a
// replica through the configured Kill callback and ejects it immediately.
// Fleet owners wire the callback to serve.Server.Close for in-process
// replicas; without one the endpoint answers 501.
func (rt *Router) handleKill(w http.ResponseWriter, r *http.Request) {
	if !serve.PostOnly(w, r) {
		return
	}
	if rt.cfg.Kill == nil {
		serve.WriteError(w, http.StatusNotImplemented, fmt.Errorf("router: no kill hook configured"))
		return
	}
	idx, err := strconv.Atoi(r.URL.Query().Get("replica"))
	if err != nil || idx < 0 || idx >= len(rt.replicas) {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("router: bad replica index %q", r.URL.Query().Get("replica")))
		return
	}
	rep := rt.replicas[idx]
	if rep.killed.Swap(true) {
		serve.WriteError(w, http.StatusConflict, fmt.Errorf("router: %s already killed", rep.name))
		return
	}
	if rep.healthy.Swap(false) {
		rep.ejects.Add(1)
	}
	if err := rt.cfg.Kill(idx); err != nil {
		serve.WriteError(w, http.StatusInternalServerError, fmt.Errorf("router: killing %s: %w", rep.name, err))
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"killed": rep.name})
}
