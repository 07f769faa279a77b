// Package router is the sharded serving tier: an HTTP router fronting N
// serve.Server replicas that all hold the same dataset and model, and so
// the same answer table per generation. Any replica can answer any vertex;
// the router spreads load, survives replica loss and keeps responses
// generation-consistent while a swap rolls through the fleet.
//
// The router provides:
//
//   - partition-aware routing: each request vertex goes to the replica
//     owning its part; mixed requests are split into per-replica
//     sub-requests and the responses merged in input order,
//   - per-replica health checking with eject/readmit (and generation
//     catch-up before readmission),
//   - fleet-wide admission control that honors and propagates Retry-After,
//   - rolling hot-swap orchestration: POST /admin/swap fans out
//     replica-by-replica with generation verification, and a merge-time
//     generation check guarantees no response ever mixes model
//     generations, and
//   - an aggregated GET /metrics endpoint (fleet QPS, p50/p99, and every
//     replica's serving snapshot).
//
// Endpoints: POST /predict, GET /healthz, GET /metrics, POST /admin/swap,
// POST /admin/kill (optional chaos hook).
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sagnn/internal/serve"
)

// Policy selects how vertices map to replicas.
type Policy string

const (
	// PolicyPartition routes each vertex to the replica owning its
	// partition part (Config.PartOf), splitting mixed requests. It is the
	// default; EXPERIMENTS.md measures it against PolicyRandom.
	PolicyPartition Policy = "partition"
	// PolicyRandom sends each whole request to a uniformly chosen replica —
	// the classic load-balancer baseline.
	PolicyRandom Policy = "random"
)

// ErrConfig tags a rejected router configuration.
var ErrConfig = errors.New("router: invalid config")

// The health loop ejects a replica after ejectAfter consecutive failed
// probes and readmits it after readmitAfter consecutive successful ones —
// after its generation has been caught up to the fleet target.
// PolicyRandom's replica stream starts at randomSeed.
const (
	ejectAfter   = 2
	readmitAfter = 2
	randomSeed   = 1
)

// Config tunes the router. The zero value selects the defaults (partition
// policy, which requires PartOf).
type Config struct {
	// PartOf maps a vertex id in [0, Vertices) to its partition part.
	// Required under PolicyPartition; parts map to replicas modulo the
	// replica count. Typically (*partition.Partition).PartOf.
	PartOf func(v int) int
	// Policy selects the routing policy (default PolicyPartition).
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
	if c.Policy == "" {
		c.Policy = PolicyPartition
	}
	if c.Policy != PolicyPartition && c.Policy != PolicyRandom {
		return c, fmt.Errorf("%w: unknown policy %q", ErrConfig, c.Policy)
	}
	if c.Policy == PolicyPartition && c.PartOf == nil {
		return c, fmt.Errorf("%w: PolicyPartition requires PartOf", ErrConfig)
	}
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
	subRequests atomic.Uint64

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

	splits     atomic.Uint64 // requests split across >1 replica
	genRetries atomic.Uint64 // merge-time generation conflicts retried whole
	reroutes   atomic.Uint64 // sub-requests diverted off an unreachable replica
	swaps      atomic.Uint64 // completed rolling swaps

	targetGen atomic.Uint64                // fleet generation every replica should serve
	artifact  atomic.Pointer[swapArtifact] // latest fanned-out model blob
	swapMu    sync.Mutex                   // one rolling swap at a time
	rrState   atomic.Uint64                // PolicyRandom stream state

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

// subResult is one replica sub-request outcome.
type subResult struct {
	status     int
	retryAfter string
	body       serve.PredictResponse
	errBody    []byte // raw error document for non-200 propagation
	err        error  // transport failure; in route's outcome, the router's own failure
}

// doPredict posts one sub-request to a replica and decodes the outcome.
func (rt *Router) doPredict(ctx context.Context, r *replica, vertices []int) subResult {
	r.subRequests.Add(1)
	body, err := json.Marshal(serve.PredictRequest{Vertices: vertices})
	if err != nil {
		return subResult{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/predict", bytes.NewReader(body))
	if err != nil {
		return subResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return subResult{err: err}
	}
	defer resp.Body.Close()
	res := subResult{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res.body); err != nil {
			return subResult{err: fmt.Errorf("decoding %s response: %w", r.name, err)}
		}
		r.gen.Store(res.body.Generation)
		return res
	}
	res.errBody, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return res
}

// unreachable reports whether a sub-result means "this replica cannot
// serve right now" (transport failure, 5xx other than a shed, or a 503
// without Retry-After — serve sets the header only when shedding, so a
// bare 503 is a closing or deadline-blown replica), as opposed to a
// client-error or shed outcome that must propagate.
func (res subResult) unreachable() bool {
	if res.err != nil {
		return true
	}
	if res.status == http.StatusServiceUnavailable && res.retryAfter == "" {
		return true
	}
	return res.status >= 500 && res.status != http.StatusServiceUnavailable
}

// handlePredict routes one client request across the fleet.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	req, ok := rt.front.DecodePredict(w, r)
	if !ok {
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
	res := rt.route(r.Context(), req.Vertices)
	switch {
	case res.err != nil:
		rt.front.Failed()
		serve.WriteError(w, res.status, res.err)
	case res.status == http.StatusOK:
		rt.front.Served(start)
		serve.WriteJSON(w, http.StatusOK, res.body)
	case res.status == http.StatusServiceUnavailable:
		// A replica shed the sub-request: propagate the backpressure with
		// the largest Retry-After any replica asked for.
		rt.front.Shed()
		if res.retryAfter != "" {
			w.Header().Set("Retry-After", res.retryAfter)
		}
		writeRaw(w, res.status, res.errBody)
	default:
		rt.front.Failed()
		writeRaw(w, res.status, res.errBody)
	}
}

// group is one sub-request: the vertices one replica answers and their
// positions in the client request.
type group struct {
	replica       int
	vertices, pos []int
}

// route fans a request out as one sub-request per group and merges the
// responses. Each vertex goes to its home replica; a PolicyRandom request,
// one the router cannot map (empty, out-of-range vertices — the replica
// owns validation and answers with exact single-server semantics) and the
// retry after a generation conflict go whole, as one group pinned to one
// replica. The outcome is one subResult: a 200 with the merged response, a
// replica's status, Retry-After and error document, or the router's own
// failure in err with the status that answers it.
func (rt *Router) route(ctx context.Context, vertices []int) subResult {
	pin := -1
	if rt.cfg.Policy == PolicyRandom {
		pin = rt.nextRandom()
	} else if !rt.mappable(vertices) {
		pin = 0
	}
	for {
		groups := rt.groups(vertices, pin)
		// One health fallback per group: an ejected home sends its whole
		// group to the next healthy replica.
		for i := range groups {
			if g := &groups[i]; !rt.replicas[g.replica].healthy.Load() {
				if g.replica = rt.fallback(g.replica); g.replica < 0 {
					return subResult{status: http.StatusServiceUnavailable, err: errors.New("router: no healthy replicas")}
				}
				rt.reroutes.Add(1)
			}
		}
		if len(groups) > 1 {
			rt.splits.Add(1)
		}

		// Fan out concurrently; each unreachable replica gets one reroute to
		// the next healthy one before the request fails.
		results := make([]subResult, len(groups))
		var wg sync.WaitGroup
		for i, g := range groups {
			wg.Add(1)
			go func(i int, g group) {
				defer wg.Done()
				res := rt.doPredict(ctx, rt.replicas[g.replica], g.vertices)
				if res.unreachable() {
					if fb := rt.fallback((g.replica + 1) % len(rt.replicas)); fb >= 0 && fb != g.replica {
						rt.reroutes.Add(1)
						res = rt.doPredict(ctx, rt.replicas[fb], g.vertices)
					}
				}
				results[i] = res
			}(i, g)
		}
		wg.Wait()

		// Any non-200 fails the whole request — a partial prediction is not
		// a prediction.
		for _, res := range results {
			if res.err != nil {
				return subResult{status: http.StatusBadGateway, err: fmt.Errorf("router: replica unreachable: %v", res.err)}
			}
			if res.status != http.StatusOK {
				res.retryAfter = maxRetryAfter(results)
				return res
			}
		}
		if len(groups) == 1 {
			// One group holds the whole request in input order.
			return results[0]
		}

		// Generation consistency: a rolling swap may have answered different
		// groups with different models. Never merge them — retry the whole
		// request on one replica, whose response is internally consistent.
		gen := results[0].body.Generation
		if slices.ContainsFunc(results, func(res subResult) bool { return res.body.Generation != gen }) {
			rt.genRetries.Add(1)
			pin = dominant(groups)
			continue
		}

		// Merge rows back into input order.
		merged := serve.PredictResponse{
			Generation: gen,
			Classes:    make([]int, len(vertices)),
			Probs:      make([][]float64, len(vertices)),
		}
		for i, g := range groups {
			for j, pos := range g.pos {
				merged.Classes[pos] = results[i].body.Classes[j]
				merged.Probs[pos] = results[i].body.Probs[j]
			}
		}
		return subResult{status: http.StatusOK, body: merged}
	}
}

// mappable reports whether every vertex of a non-empty request has a home
// replica.
func (rt *Router) mappable(vertices []int) bool {
	for _, v := range vertices {
		if v < 0 || v >= rt.vertices {
			return false
		}
	}
	return len(vertices) > 0
}

// groups splits a request by home replica, in replica order, remembering
// input positions for the merge; pin ≥ 0 makes the whole request one group
// on that replica.
func (rt *Router) groups(vertices []int, pin int) []group {
	if pin >= 0 {
		return []group{{replica: pin, vertices: vertices}}
	}
	byHome := make([]group, len(rt.replicas))
	for i, v := range vertices {
		g := &byHome[rt.cfg.PartOf(v)%len(rt.replicas)]
		g.vertices = append(g.vertices, v)
		g.pos = append(g.pos, i)
	}
	groups := byHome[:0]
	for home, g := range byHome {
		if len(g.vertices) > 0 {
			g.replica = home
			groups = append(groups, g)
		}
	}
	return groups
}

// dominant returns the replica answering the largest group — the single
// home for a consistency retry.
func dominant(groups []group) int {
	best := groups[0]
	for _, g := range groups[1:] {
		if len(g.vertices) > len(best.vertices) {
			best = g
		}
	}
	return best.replica
}

// maxRetryAfter returns the largest Retry-After any sub-response carried, or
// a lone sub-response's verbatim.
func maxRetryAfter(results []subResult) string {
	if len(results) == 1 {
		return results[0].retryAfter
	}
	max := 0
	for _, res := range results {
		if res.retryAfter == "" {
			continue
		}
		if v, err := strconv.Atoi(res.retryAfter); err == nil && v > max {
			max = v
		}
	}
	if max == 0 {
		return ""
	}
	return strconv.Itoa(max)
}

// writeRaw forwards a replica's error document verbatim.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	if len(body) == 0 {
		serve.WriteError(w, code, errors.New(http.StatusText(code)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}
