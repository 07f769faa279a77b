package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. The harness measures from
// outside the program, so a span brackets a call into a layer's public
// functions; parent names the rung above it in the workload's stack.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Rank     int    `json:"rank"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// record stores one span; the layer is the part of name before the dot.
func (t *tracer) record(name, parent string, rank int, start, end time.Time) {
	layer, _, _ := strings.Cut(name, ".")
	s := span{Name: name, Layer: layer, Workload: t.workload, Rank: rank,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(), Parent: parent}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps the spans to dir/trace_<workload>.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+t.workload+".json"), data, 0o644)
}

// child is one rung below a parent rung: its measured time per call and how
// many times the parent calls it per operation.
type child struct {
	ms    float64
	calls int
}

// selfTime is the ladder's arithmetic: a rung's own time is its measured
// time minus its child rungs' measured times × their call counts. Rungs are
// timed separately, so noise can push the difference below zero; it is
// reported as measured, not clamped.
func selfTime(parentMs float64, children ...child) float64 {
	for _, c := range children {
		parentMs -= c.ms * float64(c.calls)
	}
	return parentMs
}
