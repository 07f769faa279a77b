package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"sagnn/internal/retry"
	"sagnn/internal/router"
	"sagnn/internal/serve"
)

// loadConfig parameterizes one load-generator run.
type loadConfig struct {
	target   string
	clients  int
	perReq   int
	hot      float64
	duration time.Duration
	seed     int64

	// scenario shapes the traffic and optional mid-run chaos:
	//   uniform — uniform vertex popularity (plus the -hot fraction)
	//   zipf    — Zipfian vertex popularity with exponent zipfS
	//   swap    — zipf traffic; at half-time POST swapModel to /admin/swap
	//   kill    — zipf traffic; at half-time POST /admin/kill?replica=K
	scenario    string
	zipfS       float64
	swapModel   string
	killReplica int
}

// newPicker returns the per-client vertex picker for the scenario.
func (cfg loadConfig) newPicker(rng *rand.Rand, n int) (func(verts []int), error) {
	switch cfg.scenario {
	case "", "uniform":
		return func(verts []int) { pickDistinct(rng, verts, n, cfg.hot) }, nil
	case "zipf", "swap", "kill":
		if cfg.zipfS <= 1 {
			return nil, fmt.Errorf("zipf exponent -zipfs must be > 1, got %v", cfg.zipfS)
		}
		z := rand.NewZipf(rng, cfg.zipfS, 1, uint64(n-1))
		return func(verts []int) { fillDistinct(verts, func() int { return int(z.Uint64()) }) }, nil
	default:
		return nil, fmt.Errorf("unknown scenario %q (uniform, zipf, swap, kill)", cfg.scenario)
	}
}

// fireEvent runs the scenario's mid-run chaos action, if any.
func (cfg loadConfig) fireEvent() error {
	switch cfg.scenario {
	case "swap":
		if cfg.swapModel == "" {
			return errors.New("scenario swap needs -swapmodel")
		}
		data, err := os.ReadFile(cfg.swapModel)
		if err != nil {
			return err
		}
		resp, err := http.Post(cfg.target+"/admin/swap", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<14))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("swap: %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		fmt.Printf("event: rolling swap completed: %s\n", bytes.TrimSpace(body))
	case "kill":
		url := fmt.Sprintf("%s/admin/kill?replica=%d", cfg.target, cfg.killReplica)
		resp, err := http.Post(url, "application/json", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<14))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("kill: %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		fmt.Printf("event: replica killed: %s\n", bytes.TrimSpace(body))
	}
	return nil
}

// runLoadgen drives POST /predict from many concurrent clients and reports
// throughput, shed rate, and latency quantiles — the harness behind the
// EXPERIMENTS serving tables and the CI SLO gates.
func runLoadgen(cfg loadConfig) error {
	n, err := serverVertices(cfg.target)
	if err != nil {
		return fmt.Errorf("probing %s: %w", cfg.target, err)
	}
	if cfg.perReq > n {
		return fmt.Errorf("request size %d exceeds %d vertices", cfg.perReq, n)
	}
	scenario := cfg.scenario
	if scenario == "" {
		scenario = "uniform"
	}
	fmt.Printf("loadgen[%s]: %d clients × %d vertices/request against %s (%d vertices) for %v\n",
		scenario, cfg.clients, cfg.perReq, cfg.target, n, cfg.duration)

	type result struct {
		lat  []time.Duration
		errs int
		shed int
	}
	start := time.Now()
	deadline := start.Add(cfg.duration)
	results := make([]result, cfg.clients)
	var wg sync.WaitGroup
	pickErr := make(chan error, cfg.clients)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
			pick, err := cfg.newPicker(rng, n)
			if err != nil {
				pickErr <- err
				return
			}
			client := &http.Client{Timeout: 30 * time.Second}
			verts := make([]int, cfg.perReq)
			for time.Now().Before(deadline) {
				pick(verts)
				body, _ := json.Marshal(map[string][]int{"vertices": verts})
				t0 := time.Now()
				resp, err := client.Post(cfg.target+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					results[c].errs++
					continue
				}
				// Drain before closing so the client reuses the keep-alive
				// connection instead of dialing per request.
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					// Load shedding is the server protecting its latency, not
					// a failure: count it separately so the shed rate under a
					// given offered load is directly observable.
					results[c].shed++
					continue
				}
				if resp.StatusCode != http.StatusOK {
					results[c].errs++
					continue
				}
				results[c].lat = append(results[c].lat, time.Since(t0))
			}
		}(c)
	}

	// Mid-run chaos, for the swap/kill scenarios: fire at half-time while
	// the clients keep hammering.
	eventDone := make(chan error, 1)
	go func() {
		if cfg.scenario != "swap" && cfg.scenario != "kill" {
			eventDone <- nil
			return
		}
		if err := retry.Sleep(context.Background(), cfg.duration/2, 1); err != nil {
			eventDone <- err
			return
		}
		eventDone <- cfg.fireEvent()
	}()

	wg.Wait()
	if err := <-eventDone; err != nil {
		return fmt.Errorf("scenario event: %w", err)
	}
	select {
	case err := <-pickErr:
		return err
	default:
	}

	var all []time.Duration
	errs, shed := 0, 0
	for _, r := range results {
		all = append(all, r.lat...)
		errs += r.errs
		shed += r.shed
	}
	if len(all) == 0 {
		return errors.New("no successful requests")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }
	offered := len(all) + errs + shed
	fmt.Printf("requests %d  errors %d  shed %d (%.1f%% of %d offered)  throughput %.1f req/s\n",
		len(all), errs, shed, 100*float64(shed)/float64(offered), offered, float64(len(all))/cfg.duration.Seconds())
	fmt.Printf("latency p50 %v  p90 %v  p99 %v  max %v\n",
		q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	printFleetMetrics(cfg.target)
	return nil
}

// printFleetMetrics reports the router's fleet-level aggregates when the
// target is a router (a plain serve.Server's /metrics names no replicas).
// Best-effort: a target without /metrics is not an error.
func printFleetMetrics(target string) {
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var m router.Snapshot
	if json.NewDecoder(resp.Body).Decode(&m) != nil || m.Replicas == 0 {
		return
	}
	fmt.Printf("fleet: cache hit rate %.3f  gather fraction %.4f  healthy %d/%d  generation %d\n",
		m.FleetCacheHitRate, m.FleetGatherFraction, m.Healthy, m.Replicas, m.Generation)
}

// pickDistinct fills verts with distinct vertex ids; a hot fraction of
// requests samples from a fixed 64-vertex hot set to exercise the cache.
func pickDistinct(rng *rand.Rand, verts []int, n int, hot float64) {
	limit := n
	if hot > 0 && rng.Float64() < hot {
		limit = 64
		if limit > n {
			limit = n
		}
		if limit < len(verts) {
			limit = n // hot set smaller than the request: fall back to uniform
		}
	}
	fillDistinct(verts, func() int { return rng.Intn(limit) })
}

// fillDistinct fills verts with distinct draws from next.
func fillDistinct(verts []int, next func() int) {
	for i := range verts {
		for {
			v := next()
			dup := false
			for _, w := range verts[:i] {
				if w == v {
					dup = true
					break
				}
			}
			if !dup {
				verts[i] = v
				break
			}
		}
	}
}

// serverVertices asks /healthz how many vertices the served dataset has.
func serverVertices(target string) (int, error) {
	resp, err := http.Get(target + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	if h.Vertices < 1 {
		return 0, fmt.Errorf("server reports %d vertices", h.Vertices)
	}
	return h.Vertices, nil
}
