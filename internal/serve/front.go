package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Front is the HTTP front end both serving tiers run — a replica's Server
// and the fleet's router: the admission gate with its in-flight gauge, the
// traffic counters with their latency window, the /predict body decode and
// the JSON writers. Admitting, Leave, Served and Failed allocate nothing, so
// a prediction stays allocation-free. Safe for concurrent use.
type Front struct {
	start       time.Time
	maxInFlight int // <= 0 means unlimited
	inFlight    atomic.Int64

	requests atomic.Uint64 // answered predictions
	failed   atomic.Uint64 // rejected or errored predictions (not shed)
	shed     atomic.Uint64 // predictions refused with 503 under overload

	lat *latencyRing
}

// NewFront returns a front anchored at now that admits at most maxInFlight
// concurrent predictions (<= 0: unlimited; see InFlightLimit).
func NewFront(maxInFlight int) *Front {
	return &Front{start: time.Now(), maxInFlight: maxInFlight, lat: newLatencyRing(latencyWindow)}
}

// InFlightLimit resolves a tier's MaxInFlight setting: zero selects def,
// InFlightUnlimited disables shedding, and any other negative value is an
// error the caller tags with its own ErrConfig.
func InFlightLimit(max, def int) (int, error) {
	switch {
	case max == 0:
		return def, nil
	case max < 0 && max != InFlightUnlimited:
		return max, fmt.Errorf("MaxInFlight %d is negative (use InFlightUnlimited to disable shedding)", max)
	}
	return max, nil
}

// Enter admits one prediction, or sheds it — counted, with ErrOverloaded —
// once MaxInFlight are already in flight. Each admitted prediction is
// paired with one Leave.
func (f *Front) Enter() error {
	n := f.inFlight.Add(1)
	if f.maxInFlight > 0 && n > int64(f.maxInFlight) {
		f.inFlight.Add(-1)
		f.shed.Add(1)
		return fmt.Errorf("%w: %d requests in flight (limit %d)", ErrOverloaded, n-1, f.maxInFlight)
	}
	return nil
}

// Leave takes an admitted prediction back out of the in-flight gauge.
func (f *Front) Leave() { f.inFlight.Add(-1) }

// Served counts one answered prediction and its latency since start.
func (f *Front) Served(start time.Time) {
	f.requests.Add(1)
	f.lat.Observe(time.Since(start))
}

// Failed counts one rejected or errored prediction.
func (f *Front) Failed() { f.failed.Add(1) }

// Shed counts one prediction refused with 503 past the gate (the router
// propagating a replica's shed).
func (f *Front) Shed() { f.shed.Add(1) }

// MaxPredictBody bounds a POST /predict body in bytes, on a replica and on
// the router that forwards to it.
const MaxPredictBody = 1 << 20

// DecodePredict reads a POST /predict body. It answers a wrong method (405)
// or an undecodable body (400, counted as failed) itself and then reports
// false.
func (f *Front) DecodePredict(w http.ResponseWriter, r *http.Request) (req PredictRequest, ok bool) {
	if !PostOnly(w, r) {
		return req, false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxPredictBody)).Decode(&req); err != nil {
		f.Failed()
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return req, false
	}
	return req, true
}

// Admission is the admission block of a /metrics document: live occupancy
// against the in-flight limit, and predictions shed with 503.
type Admission struct {
	InFlight    int64  `json:"in_flight"`
	MaxInFlight int    `json:"max_in_flight"` // <= 0 means unlimited
	Shed        uint64 `json:"shed"`
}

// FrontSnapshot is a front's part of its tier's /metrics document: the
// traffic counters at the top level and the admission block under
// "admission". Server and router snapshots embed it, so both documents
// carry these keys at the same paths.
type FrontSnapshot struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Requests      uint64          `json:"requests"`
	Failed        uint64          `json:"failed"`
	QPS           float64         `json:"qps"`
	Latency       LatencySnapshot `json:"latency"`
	Admission     `json:"admission"`
}

// Snapshot reads the front's counters.
func (f *Front) Snapshot() FrontSnapshot {
	s := FrontSnapshot{
		UptimeSeconds: time.Since(f.start).Seconds(),
		Requests:      f.requests.Load(),
		Failed:        f.failed.Load(),
		Latency:       f.lat.snapshot(),
		Admission: Admission{
			InFlight:    f.inFlight.Load(),
			MaxInFlight: f.maxInFlight,
			Shed:        f.shed.Load(),
		},
	}
	if s.UptimeSeconds > 0 {
		s.QPS = float64(s.Requests) / s.UptimeSeconds
	}
	return s
}

// PostOnly answers a request that is not a POST with 405 and reports
// whether r is one.
func PostOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return false
	}
	return true
}

// WriteFailure answers a failed prediction with the status statusFor maps
// err to, adding Retry-After when it was shed.
func WriteFailure(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
	}
	WriteError(w, statusFor(err), err)
}

// WriteJSON answers with v as a JSON document.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with the {"error": ...} document every endpoint of
// both tiers uses.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// latencyWindow bounds the per-request latency samples kept for quantile
// estimation; a ring this size covers minutes of heavy traffic while
// keeping the /metrics sort cheap.
const latencyWindow = 4096

// latencyRing is a fixed-capacity sliding window of request latencies with
// quantile estimation — the p50/p99 source behind /metrics. Observing is
// allocation-free; safe for concurrent use.
type latencyRing struct {
	mu      sync.Mutex
	cap     int
	samples []float64 // milliseconds
	next    int
}

func newLatencyRing(capacity int) *latencyRing {
	return &latencyRing{cap: capacity, samples: make([]float64, 0, capacity)}
}

// Observe records one latency into the sliding window.
func (r *latencyRing) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, ms)
	} else {
		r.samples[r.next] = ms
	}
	r.next = (r.next + 1) % r.cap
	r.mu.Unlock()
}

// Quantiles returns the p50 and p99 of the current window in milliseconds,
// plus the number of samples they summarize (0, 0, 0 when empty).
func (r *latencyRing) Quantiles() (p50, p99 float64, count int) {
	r.mu.Lock()
	sorted := append([]float64(nil), r.samples...)
	r.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.99), len(sorted)
}

// LatencySnapshot is the quantile block of a metrics snapshot.
type LatencySnapshot struct {
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
}

func (r *latencyRing) snapshot() LatencySnapshot {
	p50, p99, samples := r.Quantiles()
	return LatencySnapshot{P50Ms: p50, P99Ms: p99, Samples: samples}
}
