package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sagnn/internal/serve"
)

// TestLoadgenRejectsBadConfigBeforeSending pins that a configuration error
// is returned before any traffic: with a bad -zipfs under -scenario swap,
// the target never sees a /predict or an /admin/swap.
func TestLoadgenRejectsBadConfigBeforeSending(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		if r.URL.Path == "/healthz" {
			serve.WriteJSON(w, http.StatusOK, serve.Health{Status: "ok", Generation: 1, Vertices: 100, Classes: 2})
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]any{"generation": 2})
	}))
	defer target.Close()
	model := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(model, []byte("model"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []loadConfig{
		{scenario: "swap", zipfS: 0.5, swapModel: model, clients: 2, perReq: 1},
		{scenario: "kill", zipfS: 1.3, clients: 0, perReq: 1},
		{scenario: "zipf", zipfS: 1.3, clients: 2, perReq: 0},
		{scenario: "swap", zipfS: 1.3, clients: 2, perReq: 1},
		{scenario: "teleport", clients: 2, perReq: 1},
	} {
		cfg.target, cfg.duration = target.URL, 100*time.Millisecond
		if err := runLoadgen(cfg); err == nil {
			t.Errorf("%+v: no error", cfg)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range paths {
		if p == "/predict" || p == "/admin/swap" || p == "/admin/kill" {
			t.Fatalf("target received %s for a rejected configuration (%d requests in all)", p, len(paths))
		}
	}
}
