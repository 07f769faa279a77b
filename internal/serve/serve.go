// Package serve is the online-inference subsystem: an HTTP JSON server that
// answers per-vertex class predictions from a trained model over a fixed
// dataset. The graph and features are static, as in the paper's full-graph
// training, so one model generation has exactly one set of answers: an
// n × classes probability table. The server builds it with one full-batch
// forward when a model arrives (New, or a hot swap through the admin
// endpoint, fed by the session checkpoint format), rejects a model whose
// table is not finite, and publishes the table with one atomic pointer
// store. A prediction is a lookup into the table it loaded: it never waits,
// never allocates, and never mixes generations. Serving memory is bounded
// by n × classes, not by a caller-chosen size.
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

// Config tunes the serving path. The zero value selects the defaults;
// InFlightUnlimited disables admission control; any other out-of-range
// value is rejected by New with a typed ErrConfig. Nothing else is sized by
// the caller: a generation's answers are one n × classes table.
type Config struct {
	// MaxRequestVertices rejects single requests larger than this
	// (default 1024; must be ≥ 1).
	MaxRequestVertices int
	// MaxInFlight is the admission-control limit: requests beyond this many
	// concurrently-served predictions are shed immediately with ErrOverloaded
	// (HTTP 503). Default 1024; InFlightUnlimited disables shedding.
	MaxInFlight int
	// CacheSize is ignored, whatever its value (see compat.go).
	CacheSize int
}

// InFlightUnlimited disables admission control (never shed).
const InFlightUnlimited = -1

// ErrConfig tags a rejected Config: a field outside its meaningful range
// that is not the documented disable sentinel. errors.Is-able.
var ErrConfig = errors.New("serve: invalid config")

// withDefaults validates the config and fills in defaults: zero fields
// select the documented defaults, InFlightUnlimited selects "never shed",
// and anything else out of range is rejected with a typed ErrConfig — a -7
// admission limit is a typo, not a request to disable.
func (c Config) withDefaults() (Config, error) {
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
	return c, nil
}

// ErrOverloaded sheds a request when MaxInFlight predictions are already
// being served (by a replica, or by the whole fleet behind a router); HTTP
// callers map it to 503 with Retry-After.
var ErrOverloaded = errors.New("serve: overloaded")

// ErrClosed is returned for predictions attempted after the server began
// shutting down.
var ErrClosed = errors.New("serve: server closed")

// modelState is one immutable serving generation: every vertex's
// probability row and class under one model, and its lineage. The graph
// and features are static, so a generation's answers are this one table,
// built once by a full-batch forward. Swaps publish a whole new state
// through one atomic pointer, so a request that loads it once answers from
// a single generation.
type modelState struct {
	probs      [][]float64 // row v is vertex v's probabilities; read-only
	classes    []int       // argmax of each row
	generation uint64
	epoch      int // checkpoint epoch the model came from, -1 for a bare model
}

// answers runs model's full-batch forward over ds once and freezes the
// result as an unpublished serving state of the given lineage; the caller
// numbers its generation. A model whose forward overflows answers rows no
// JSON reply can carry, so any non-finite probability rejects it.
func answers(ds *sagnn.Dataset, model *sagnn.Model, epoch int) (*modelState, error) {
	probs, err := model.Probabilities(ds, nil)
	if err != nil {
		return nil, err
	}
	classes := make([]int, len(probs))
	for v, row := range probs {
		for _, p := range row {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, fmt.Errorf("serve: model yields probability %v at vertex %d", p, v)
			}
		}
		classes[v] = dense.ArgmaxRow(row)
	}
	return &modelState{probs: probs, classes: classes, epoch: epoch}, nil
}

// Server serves predictions for one dataset. Safe for concurrent use.
type Server struct {
	ds      *sagnn.Dataset
	classes int
	cfg     Config

	state   atomic.Pointer[modelState]
	front   *Front
	metrics Metrics
	mux     *http.ServeMux
	closed  atomic.Bool
}

// New builds a server for the model over the dataset, computing the
// model's answer table up front.
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
	st, err := answers(ds, model, -1)
	if err != nil {
		return nil, err
	}
	st.generation = 1
	s := &Server{ds: ds, classes: model.Classes(), cfg: cfg, front: NewFront(cfg.MaxInFlight)}
	s.state.Store(st)
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

// Close stops accepting predictions. Idempotent.
func (s *Server) Close() { s.closed.Store(true) }

// PredictInto answers one prediction request: classes[i] and probs[i]
// receive the class and probability row of vertices[i] (probs rows alias
// the generation's table; treat them as read-only). Vertices must be
// distinct and in range — sagnn.ErrInvalidVertices tags violations so HTTP
// callers map them to 400. An answer is a lookup that never waits, so ctx
// is not consulted, and the call allocates nothing.
//
// Every response is generation-consistent: the call loads the serving state
// once, and every returned row comes from that generation's table.
func (s *Server) PredictInto(_ context.Context, vertices []int, classes []int, probs [][]float64) (uint64, error) {
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
	st := s.state.Load()
	for i, v := range vertices {
		probs[i], classes[i] = st.probs[v], st.classes[v]
	}
	s.metrics.vertices.Add(uint64(len(vertices)))
	s.front.Served(start)
	return st.generation, nil
}

// Swap atomically replaces the serving model with a validated replacement —
// one that fits the dataset, scores the server's classes and yields finite
// probabilities at every vertex — publishing its answer table as the next
// generation. epoch records the checkpoint lineage (-1 for a bare model).
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
	next, err := answers(s.ds, model, epoch)
	if err != nil {
		return 0, err
	}
	for {
		old := s.state.Load()
		next.generation = old.generation + 1
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
	return s.metrics.snapshot(s.front.Snapshot(), st.generation, st.epoch)
}

// PredictRequest is the POST /predict body. Exported so clients encode
// requests with the same typed document the server decodes (the router
// forwards the body bytes without decoding them).
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
// are the client's (400), shutdown and shedding are unavailability (503),
// anything else is internal (500).
func statusFor(err error) int {
	switch {
	case errors.Is(err, sagnn.ErrInvalidVertices):
		return http.StatusBadRequest
	case errors.Is(err, ErrClosed), errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
