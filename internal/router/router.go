// Package router is the sharded serving tier: an HTTP router fronting N
// serve.Server replicas that all hold the same dataset and model, and so
// the same answer table per generation. Any replica can answer any
// request; the router spreads load, survives replica loss and rolls model
// swaps through the fleet.
//
// The router provides:
//
//   - one hop per request: each POST /predict goes whole to one replica
//     drawn from a seeded stream, and the replica's status, Retry-After
//     and body bytes go back to the client unchanged — the replica
//     validates the request, and its reply comes from one generation's
//     table, so no response ever mixes model generations,
//   - per-replica health checking with eject/readmit (and generation
//     catch-up before readmission),
//   - fleet-wide admission control that honors and propagates Retry-After,
//   - rolling hot-swap orchestration: POST /admin/swap fans out
//     replica-by-replica with generation verification, and
//   - an aggregated GET /metrics endpoint (fleet QPS, p50/p99, and every
//     replica's serving snapshot).
//
// Endpoints: POST /predict, GET /healthz, GET /metrics, POST /admin/swap,
// POST /admin/kill (optional chaos hook).
package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sagnn/internal/serve"
)

// ErrConfig tags a rejected router configuration.
var ErrConfig = errors.New("router: invalid config")

// The health loop ejects a replica after ejectAfter consecutive failed
// probes and readmits it after readmitAfter consecutive successful ones —
// after its generation has been caught up to the fleet target. The replica
// stream starts at randomSeed.
const (
	ejectAfter   = 2
	readmitAfter = 2
	randomSeed   = 1
)

// Config tunes the router. The zero value selects the defaults.
type Config struct {
	// PartOf and Policy are ignored whatever their value: every request
	// goes whole to one replica (see compat.go).
	PartOf func(v int) int
	Policy Policy
	// MaxInFlight is the fleet-wide admission limit: whole client requests
	// beyond this many in flight are shed with 503 + Retry-After before any
	// replica is touched. Default 4096; serve.InFlightUnlimited disables.
	MaxInFlight int
	// HealthInterval is the probe period of the health loop (default
	// 250ms).
	HealthInterval time.Duration
	// Kill, if set, is the chaos hook behind POST /admin/kill: it
	// terminates replica i (in-process fleets close the serve.Server).
	// Unset, the endpoint answers 501.
	Kill func(i int) error
}

func (c Config) withDefaults() (Config, error) {
	var err error
	if c.MaxInFlight, err = serve.InFlightLimit(c.MaxInFlight, 4096); err != nil {
		return c, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.HealthInterval < 0 {
		return c, fmt.Errorf("%w: HealthInterval %v is negative", ErrConfig, c.HealthInterval)
	}
	return c, nil
}

// replica is the router's view of one backend.
type replica struct {
	name   string
	base   string // URL prefix the client routes, e.g. "http://replica-0"
	client *http.Client

	healthy atomic.Bool
	killed  atomic.Bool   // administratively terminated; never readmitted
	gen     atomic.Uint64 // last observed serving generation

	ejects      atomic.Uint64
	subRequests atomic.Uint64 // requests forwarded here, reroutes included

	// Health-loop-private consecutive-probe counters (single goroutine).
	fails, oks int
}

// swapArtifact is the latest successfully fanned-out model blob, kept so
// readmission can catch a stale replica up to the fleet generation.
type swapArtifact struct {
	data []byte
	gen  uint64
}

// Router fronts a fleet of replicas. Safe for concurrent use.
type Router struct {
	cfg      Config
	replicas []*replica
	mux      *http.ServeMux

	vertices int    // dataset size, from the boot probe
	dataset  string // dataset name, from the boot probe
	classes  int

	front *serve.Front // admission gate and traffic counters

	reroutes atomic.Uint64 // requests diverted off an ejected or unreachable replica
	swaps    atomic.Uint64 // completed rolling swaps

	targetGen atomic.Uint64                // fleet generation every replica should serve
	artifact  atomic.Pointer[swapArtifact] // latest fanned-out model blob
	swapMu    sync.Mutex                   // one rolling swap at a time
	rrState   atomic.Uint64                // replica stream state

	closed       atomic.Bool
	healthCancel context.CancelFunc
	healthDone   chan struct{}
}

// New builds a router over in-process replica handlers (each typically a
// serve.Server's Handler) and starts its health loop. The boot probe
// requires every replica healthy, serving the same dataset at the same
// generation — a fleet must start consistent to stay consistent. Callers
// must Close the router to stop the health loop.
func New(handlers []http.Handler, cfg Config) (*Router, error) {
	if len(handlers) == 0 {
		return nil, fmt.Errorf("%w: no replicas", ErrConfig)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:        cfg,
		front:      serve.NewFront(cfg.MaxInFlight),
		healthDone: make(chan struct{}),
	}
	rt.rrState.Store(randomSeed)
	for i, h := range handlers {
		name := fmt.Sprintf("replica-%d", i)
		rt.replicas = append(rt.replicas, &replica{
			name:   name,
			base:   "http://" + name,
			client: newHandlerClient(h),
		})
	}
	if err := rt.bootProbe(); err != nil {
		return nil, err
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/predict", rt.handlePredict)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/admin/swap", rt.handleSwap)
	rt.mux.HandleFunc("/admin/kill", rt.handleKill)
	ctx, cancel := context.WithCancel(context.Background())
	rt.healthCancel = cancel
	go rt.healthLoop(ctx)
	return rt, nil
}

// bootProbe verifies the fleet starts consistent: every replica healthy,
// identical dataset identity, one common generation (the initial target).
func (rt *Router) bootProbe() error {
	var gen uint64
	for i, r := range rt.replicas {
		h, err := rt.probe(context.Background(), r)
		if err != nil {
			return fmt.Errorf("router: boot probe of %s: %w", r.name, err)
		}
		if i == 0 {
			rt.dataset, rt.vertices, rt.classes, gen = h.Dataset, h.Vertices, h.Classes, h.Generation
		} else if h.Dataset != rt.dataset || h.Vertices != rt.vertices || h.Classes != rt.classes {
			return fmt.Errorf("router: %s serves %s/%dv/%dc, fleet serves %s/%dv/%dc",
				r.name, h.Dataset, h.Vertices, h.Classes, rt.dataset, rt.vertices, rt.classes)
		} else if h.Generation != gen {
			return fmt.Errorf("router: %s at generation %d, fleet at %d — fleets must boot uniform",
				r.name, h.Generation, gen)
		}
		r.gen.Store(h.Generation)
		r.healthy.Store(true)
	}
	rt.targetGen.Store(gen)
	return nil
}

// Handler returns the router's HTTP handler tree.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health loop and refuses further predictions. It does not
// close the replicas — the fleet owner does. Idempotent.
func (rt *Router) Close() {
	if rt.closed.Swap(true) {
		return
	}
	rt.healthCancel()
	<-rt.healthDone
}

// Generation returns the fleet target generation (what every healthy
// replica serves after the last completed rolling swap).
func (rt *Router) Generation() uint64 { return rt.targetGen.Load() }

// nextRandom draws a replica index from the seeded splitmix64 stream —
// cheap, lock-free, and well spread regardless of request arrival order.
func (rt *Router) nextRandom() int {
	x := rt.rrState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(rt.replicas)))
}

// fallback returns the first healthy replica at or after idx in ring
// order, or -1 when the whole fleet is down.
func (rt *Router) fallback(idx int) int {
	n := len(rt.replicas)
	for off := 0; off < n; off++ {
		i := (idx + off) % n
		if rt.replicas[i].healthy.Load() {
			return i
		}
	}
	return -1
}

// reply is one replica's answer to a forwarded request, kept as bytes.
type reply struct {
	status      int
	retryAfter  string
	contentType string
	body        []byte
	err         error // transport failure; in route's outcome, the router's own failure
}

// forward posts the client's body bytes to one replica and reads its
// answer back unparsed.
func (rt *Router) forward(ctx context.Context, r *replica, body []byte) reply {
	r.subRequests.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/predict", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	res := reply{
		status:      resp.StatusCode,
		retryAfter:  resp.Header.Get("Retry-After"),
		contentType: resp.Header.Get("Content-Type"),
	}
	if res.body, err = io.ReadAll(resp.Body); err != nil {
		return reply{err: fmt.Errorf("reading %s response: %w", r.name, err)}
	}
	return res
}

// unreachable reports whether a reply means "this replica cannot serve
// right now" (transport failure, 5xx other than a shed, or a 503 without
// Retry-After — serve sets the header only when shedding, so a bare 503 is
// a closing replica), as opposed to an answer or a shed that must reach
// the client.
func (res reply) unreachable() bool {
	if res.err != nil {
		return true
	}
	if res.status == http.StatusServiceUnavailable && res.retryAfter == "" {
		return true
	}
	return res.status >= 500 && res.status != http.StatusServiceUnavailable
}

// handlePredict forwards one client request whole to one replica and
// passes its reply through: status, Retry-After and body bytes. The
// replica validates the request; the router never parses it.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !serve.PostOnly(w, r) {
		return
	}
	// One byte past the limit is enough for the replica's own bound to
	// reject an oversized body exactly as a single server would.
	body, err := io.ReadAll(io.LimitReader(r.Body, serve.MaxPredictBody+1))
	if err != nil {
		rt.front.Failed()
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if rt.closed.Load() {
		serve.WriteError(w, http.StatusServiceUnavailable, errors.New("router: closed"))
		return
	}
	// Fleet-wide admission: shed whole requests before touching replicas.
	if err := rt.front.Enter(); err != nil {
		serve.WriteFailure(w, err)
		return
	}
	defer rt.front.Leave()
	start := time.Now()
	res := rt.route(r.Context(), body)
	if res.err != nil {
		rt.front.Failed()
		serve.WriteError(w, res.status, res.err)
		return
	}
	switch res.status {
	case http.StatusOK:
		rt.front.Served(start)
	case http.StatusServiceUnavailable:
		rt.front.Shed()
	default:
		rt.front.Failed()
	}
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// route sends the body to one replica drawn from the splitmix stream — the
// next healthy one if it is ejected — and, if that replica is unreachable,
// once more to the next healthy replica after it. The outcome is the
// replica's reply, or the router's own failure in err with the status that
// answers it.
func (rt *Router) route(ctx context.Context, body []byte) reply {
	pick := rt.nextRandom()
	if !rt.replicas[pick].healthy.Load() {
		if pick = rt.fallback(pick); pick < 0 {
			return reply{status: http.StatusServiceUnavailable, err: errors.New("router: no healthy replicas")}
		}
		rt.reroutes.Add(1)
	}
	res := rt.forward(ctx, rt.replicas[pick], body)
	if res.unreachable() {
		if fb := rt.fallback((pick + 1) % len(rt.replicas)); fb >= 0 && fb != pick {
			rt.reroutes.Add(1)
			res = rt.forward(ctx, rt.replicas[fb], body)
		}
	}
	if res.err != nil {
		return reply{status: http.StatusBadGateway, err: fmt.Errorf("router: replica unreachable: %v", res.err)}
	}
	return res
}
