// Package serve is the online-inference subsystem: an HTTP JSON server that
// answers per-vertex class predictions from a trained model over a fixed
// dataset. It applies the paper's sparsity-aware discipline to serving —
// a request computes only the rows its L-hop receptive field needs — and
// stacks three layers of traffic absorption on top:
//
//   - a micro-batcher that coalesces concurrent requests arriving within a
//     latency window into one gathered inference over their union,
//   - a per-vertex LRU probability cache (fresh per model generation, so a
//     hot swap invalidates it atomically), and
//   - lock-free atomic model hot-swap via an admin endpoint, fed by the
//     session checkpoint format.
//
// Endpoints: POST /predict, GET /healthz, GET /metrics, POST /admin/swap.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"sagnn"
	"sagnn/internal/dense"
)

// Config tunes the serving path. The zero value selects the defaults; the
// exact sentinel values WindowNone / CacheNone / InFlightUnlimited /
// TimeoutNone disable the corresponding mechanism; any other out-of-range
// value is rejected by New with a typed ErrConfig.
type Config struct {
	// BatchWindow is how long the first request of a batch waits for company
	// before inference runs. Zero (the unset value) selects the 2ms default,
	// matching the zero-value convention of the other configs; WindowNone
	// disables the wait — batches only coalesce requests already queued,
	// effectively sequential under a single client.
	BatchWindow time.Duration
	// MaxBatch closes a batch early once this many distinct vertices are
	// pending (default 256; must be ≥ 1).
	MaxBatch int
	// CacheSize is the per-vertex probability LRU capacity (default 4096);
	// CacheNone disables caching.
	CacheSize int
	// MaxRequestVertices rejects single requests larger than this
	// (default 1024; must be ≥ 1).
	MaxRequestVertices int
	// MaxInFlight is the admission-control limit: requests beyond this many
	// concurrently-served predictions are shed immediately with ErrOverloaded
	// (HTTP 503) instead of queueing without bound behind the batcher.
	// Default 1024; InFlightUnlimited disables shedding.
	MaxInFlight int
	// RequestTimeout bounds how long one prediction may wait on batched
	// inference (pure cache hits never wait and are exempt). Expired
	// requests fail with context.DeadlineExceeded (HTTP 503). Default 5s;
	// TimeoutNone disables the deadline.
	RequestTimeout time.Duration
}

// The explicit "disable" sentinels. Each zero-valued Config field selects
// its default, and each of these exact values disables the corresponding
// mechanism; any other out-of-range value is a misconfiguration that
// withDefaults rejects with ErrConfig instead of silently reinterpreting.
const (
	// WindowNone disables the micro-batch wait: batches only coalesce
	// requests already queued, effectively sequential under a single client.
	WindowNone time.Duration = -1
	// CacheNone disables the per-vertex probability cache.
	CacheNone = -1
	// InFlightUnlimited disables admission control (never shed).
	InFlightUnlimited = -1
	// TimeoutNone disables the per-request deadline.
	TimeoutNone time.Duration = -1
)

// ErrConfig tags a rejected Config: a field outside its meaningful range
// that is not one of the documented disable sentinels. errors.Is-able.
var ErrConfig = errors.New("serve: invalid config")

// withDefaults validates the config and fills in defaults: zero fields
// select the documented defaults, the exact sentinel values above select
// "disabled", and anything else out of range is rejected with a typed
// ErrConfig — a -3ms window or a -7 admission limit is a typo, not a
// request to disable.
func (c Config) withDefaults() (Config, error) {
	switch {
	case c.BatchWindow == 0:
		c.BatchWindow = 2 * time.Millisecond
	case c.BatchWindow == WindowNone:
		c.BatchWindow = 0
	case c.BatchWindow < 0:
		return c, fmt.Errorf("%w: BatchWindow %v is negative (use WindowNone to disable the wait)", ErrConfig, c.BatchWindow)
	}
	switch {
	case c.MaxBatch == 0:
		c.MaxBatch = 256
	case c.MaxBatch < 1:
		return c, fmt.Errorf("%w: MaxBatch %d < 1", ErrConfig, c.MaxBatch)
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 4096
	case c.CacheSize < 0 && c.CacheSize != CacheNone:
		return c, fmt.Errorf("%w: CacheSize %d is negative (use CacheNone to disable caching)", ErrConfig, c.CacheSize)
	}
	switch {
	case c.MaxRequestVertices == 0:
		c.MaxRequestVertices = 1024
	case c.MaxRequestVertices < 1:
		return c, fmt.Errorf("%w: MaxRequestVertices %d < 1", ErrConfig, c.MaxRequestVertices)
	}
	var err error
	if c.MaxInFlight, err = InFlightLimit(c.MaxInFlight, 1024); err != nil {
		return c, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	switch {
	case c.RequestTimeout == 0:
		c.RequestTimeout = 5 * time.Second
	case c.RequestTimeout < 0 && c.RequestTimeout != TimeoutNone:
		return c, fmt.Errorf("%w: RequestTimeout %v is negative (use TimeoutNone to disable the deadline)", ErrConfig, c.RequestTimeout)
	}
	return c, nil
}

// ErrOverloaded sheds a request when MaxInFlight predictions are already
// being served (by a replica, or by the whole fleet behind a router); HTTP
// callers map it to 503 with Retry-After.
var ErrOverloaded = errors.New("serve: overloaded")

// modelState is one immutable serving generation: the model, its private
// cache, and its lineage. Swaps publish a whole new state through one
// atomic pointer, so readers never observe a model paired with another
// generation's cache.
type modelState struct {
	model      *sagnn.Model
	cache      *Cache
	generation uint64
	epoch      int // checkpoint epoch the model came from, -1 for a bare model
}

// Server serves predictions for one dataset. Safe for concurrent use.
type Server struct {
	ds      *sagnn.Dataset
	classes int
	cfg     Config

	state   atomic.Pointer[modelState]
	batcher *Batcher
	front   *Front
	metrics Metrics
	mux     *http.ServeMux
	closed  atomic.Bool
}

// New builds a server for the model over the dataset and starts its
// micro-batching loop. Callers must Close it to flush in-flight batches.
func New(ds *sagnn.Dataset, model *sagnn.Model, cfg Config) (*Server, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if err := model.CompatibleWith(ds); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{ds: ds, classes: model.Classes(), cfg: cfg, front: NewFront(cfg.MaxInFlight)}
	s.state.Store(&modelState{
		model:      model,
		cache:      NewCache(s.cfg.CacheSize),
		generation: 1,
		epoch:      -1,
	})
	s.batcher = NewBatcher(s.cfg.BatchWindow, s.cfg.MaxBatch, s.execBatch, func(requests, vertices, gathered int, err error) {
		if err != nil {
			if errors.Is(err, ErrInferencePanic) {
				s.front.panics.Add(1)
			}
			return
		}
		s.metrics.batches.Add(1)
		s.metrics.batchRequests.Add(uint64(requests))
		s.metrics.batchVertices.Add(uint64(vertices))
		s.metrics.gatherRows.Add(uint64(gathered))
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/admin/swap", s.handleSwap)
	return s, nil
}

// Handler returns the HTTP handler tree (predict, healthz, metrics, admin).
func (s *Server) Handler() http.Handler { return s.mux }

// Generation returns the current model generation (1 at startup, +1 per
// swap).
func (s *Server) Generation() uint64 { return s.state.Load().generation }

// Close stops accepting predictions and flushes the in-flight batch.
// Idempotent.
func (s *Server) Close() {
	s.closed.Store(true)
	s.batcher.Close()
}

// execBatch is the batcher's inference callback: one sparsity-aware gather
// pass over the union of a batch's vertices under the current model state,
// publishing every row into that state's cache and reporting the state's
// generation. The batcher confines a panicking inference to its batch.
func (s *Server) execBatch(vertices []int) ([][]float64, []int, int, uint64, error) {
	st := s.state.Load()
	flat := make([]float64, len(vertices)*s.classes)
	gathered, err := st.model.ProbabilitiesInto(flat, s.ds, vertices)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	rows := make([][]float64, len(vertices))
	classes := make([]int, len(vertices))
	for i, v := range vertices {
		rows[i] = flat[i*s.classes : (i+1)*s.classes]
		classes[i] = dense.ArgmaxRow(rows[i])
		st.cache.Put(v, classes[i], rows[i])
	}
	return rows, classes, gathered, st.generation, nil
}

// PredictInto answers one prediction request: classes[i] and probs[i]
// receive the class and probability row of vertices[i] (probs rows alias
// cache-owned immutable storage; treat them as read-only). Vertices must be
// distinct and in range — sagnn.ErrInvalidVertices tags violations so HTTP
// callers map them to 400. When every vertex hits the cache the call
// allocates nothing; misses join the current micro-batch.
//
// Every response is generation-consistent: all returned rows were computed
// by the single model generation the call returns. If a hot swap lands
// mid-request (cache hits from the old state, batch computed by the new
// one), the request retries against the new state — whose cache the batch
// just populated — and as a last resort bypasses the cache so one batch
// computes the whole answer.
func (s *Server) PredictInto(ctx context.Context, vertices []int, classes []int, probs [][]float64) (uint64, error) {
	start := time.Now()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	// Admission control: shed rather than queue once MaxInFlight predictions
	// are already in the system.
	if err := s.front.Enter(); err != nil {
		return 0, err
	}
	defer s.front.Leave()
	if len(vertices) > s.cfg.MaxRequestVertices {
		s.front.Failed()
		return 0, fmt.Errorf("serve: %w: %d vertices exceeds per-request limit %d",
			sagnn.ErrInvalidVertices, len(vertices), s.cfg.MaxRequestVertices)
	}
	if err := sagnn.ValidateVertices(s.ds.G.NumVertices(), vertices); err != nil {
		s.front.Failed()
		return 0, err
	}
	if len(classes) != len(vertices) || len(probs) != len(vertices) {
		s.front.Failed()
		return 0, fmt.Errorf("serve: output slices hold %d/%d entries for %d vertices",
			len(classes), len(probs), len(vertices))
	}
	const maxAttempts = 3
	var cancel context.CancelFunc
	for attempt := 0; ; attempt++ {
		st := s.state.Load()
		bypassCache := attempt == maxAttempts-1
		var misses, missIdx []int
		hits := 0
		for i, v := range vertices {
			if !bypassCache {
				if row, class, ok := st.cache.Get(v); ok {
					probs[i], classes[i] = row, class
					hits++
					continue
				}
			}
			// Only a miss allocates: the all-hit path is allocation-free.
			misses = append(misses, v)
			missIdx = append(missIdx, i)
		}
		if len(misses) == 0 {
			// Pure cache hits are trivially consistent with st.
			s.finishRequest(start, len(vertices), hits, 0)
			return st.generation, nil
		}
		// Arm the per-request deadline only when the request must wait on a
		// batch: pure cache hits stay allocation-free and never expire.
		if d := s.cfg.RequestTimeout; d > 0 && cancel == nil {
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		rows, cls, gen, err := s.batcher.Do(ctx, misses)
		if err != nil {
			s.front.Failed()
			return 0, err
		}
		if gen != st.generation && !bypassCache {
			// A swap raced this request: the hits came from st, the batch
			// from a newer state. Retry against the new state — the batch's
			// rows are already in its cache, so the redo is cheap.
			continue
		}
		for j, i := range missIdx {
			probs[i], classes[i] = rows[j], cls[j]
		}
		s.finishRequest(start, len(vertices), hits, len(misses))
		return gen, nil
	}
}

// finishRequest records the counters of one successfully-answered request.
func (s *Server) finishRequest(start time.Time, vertices, hits, misses int) {
	s.metrics.cacheHits.Add(uint64(hits))
	s.metrics.cacheMisses.Add(uint64(misses))
	s.metrics.vertices.Add(uint64(vertices))
	s.front.Served(start)
}

// Swap atomically replaces the serving model with a validated replacement —
// one that fits the dataset, scores the server's classes and yields finite
// probabilities at every vertex — installing a fresh (empty) cache for the
// new generation. epoch records the checkpoint lineage (-1 for a bare
// model).
func (s *Server) Swap(model *sagnn.Model, epoch int) (uint64, error) {
	if model == nil {
		return 0, fmt.Errorf("serve: nil model")
	}
	if err := model.CompatibleWith(s.ds); err != nil {
		return 0, err
	}
	if got, want := model.Classes(), s.classes; got != want {
		return 0, fmt.Errorf("serve: model scores %d classes, server expects %d", got, want)
	}
	// A model whose forward overflows answers NaN rows no JSON reply can
	// carry: run it over every vertex once, which also warms its evaluator
	// for the misses that follow.
	rows, err := model.Probabilities(s.ds, nil)
	if err != nil {
		return 0, err
	}
	for v, row := range rows {
		for _, p := range row {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return 0, fmt.Errorf("serve: model yields probability %v at vertex %d", p, v)
			}
		}
	}
	for {
		old := s.state.Load()
		next := &modelState{
			model:      model,
			cache:      NewCache(s.cfg.CacheSize),
			generation: old.generation + 1,
			epoch:      epoch,
		}
		if s.state.CompareAndSwap(old, next) {
			s.metrics.swaps.Add(1)
			return next.generation, nil
		}
	}
}

// SwapBytes parses a serialized model or checkpoint and hot-swaps it in.
func (s *Server) SwapBytes(data []byte) (generation uint64, epoch int, err error) {
	model, epoch, err := sagnn.LoadServableModel(data)
	if err != nil {
		return 0, 0, err
	}
	gen, err := s.Swap(model, epoch)
	return gen, epoch, err
}

// Metrics returns the current metrics snapshot.
func (s *Server) Metrics() Snapshot {
	st := s.state.Load()
	return s.metrics.snapshot(s.front.Snapshot(), st.cache.Len(), st.cache.Capacity(), st.generation, st.epoch,
		s.ds.G.NumVertices())
}

// PredictRequest is the POST /predict body. Exported so fleet routers can
// build and split replica sub-requests with the same typed document the
// server decodes.
type PredictRequest struct {
	Vertices []int `json:"vertices"`
}

// PredictResponse is the /predict reply: one class and probability row per
// requested vertex, in request order, plus the serving generation that
// computed every row (responses are generation-consistent).
type PredictResponse struct {
	Generation uint64      `json:"generation"`
	Classes    []int       `json:"classes"`
	Probs      [][]float64 `json:"probs"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	req, ok := s.front.DecodePredict(w, r)
	if !ok {
		return
	}
	classes := make([]int, len(req.Vertices))
	probs := make([][]float64, len(req.Vertices))
	gen, err := s.PredictInto(r.Context(), req.Vertices, classes, probs)
	if err != nil {
		WriteFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, PredictResponse{Generation: gen, Classes: classes, Probs: probs})
}

// Health is the GET /healthz document: liveness plus the identity of the
// serving state. Exported so fleet routers probe replicas with a typed
// decode — generation verification during rolling swaps reads the
// Generation field — instead of scraping ad-hoc maps.
type Health struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Dataset    string `json:"dataset"`
	Vertices   int    `json:"vertices"`
	Classes    int    `json:"classes"`
}

// Health reports the server's liveness and current serving generation; ok
// is false once Close has begun (the HTTP layer then answers 503).
func (s *Server) Health() (h Health, ok bool) {
	st := s.state.Load()
	h = Health{
		Status:     "ok",
		Generation: st.generation,
		Dataset:    s.ds.Name,
		Vertices:   s.ds.G.NumVertices(),
		Classes:    s.classes,
	}
	if s.closed.Load() {
		h.Status = "shutting down"
		return h, false
	}
	return h, true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h, ok := s.Health()
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if !PostOnly(w, r) {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("reading model: %w", err))
		return
	}
	gen, epoch, err := s.SwapBytes(data)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"generation": gen, "epoch": epoch})
}

// statusFor maps serving errors to HTTP statuses: request-shape problems
// are the client's (400), shutdown / shedding / deadline expiry are
// unavailability (503), anything else — including an isolated inference
// panic — is internal (500).
func statusFor(err error) int {
	switch {
	case errors.Is(err, sagnn.ErrInvalidVertices):
		return http.StatusBadRequest
	case errors.Is(err, ErrClosed), errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
