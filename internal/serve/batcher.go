package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrClosed is returned for predictions attempted after the server (and its
// batcher) began shutting down.
var ErrClosed = errors.New("serve: server closed")

// ErrInferencePanic fails the requests of a batch whose inference panicked.
// The panic is confined to that one batch: the collection loop keeps running
// and every other request is unaffected.
var ErrInferencePanic = errors.New("serve: inference panicked")

// batchExec runs one inference over a sorted set of distinct vertices,
// returning one probability row and class per vertex (aligned to the
// input), the number of rows of Â·X the gather touched, and the model
// generation that computed the batch (so callers can keep whole responses
// generation-consistent across hot swaps).
type batchExec func(vertices []int) (rows [][]float64, classes []int, gathered int, gen uint64, err error)

// Batcher coalesces concurrent prediction requests into single inference
// batches: the first request opens a collection window, every request
// arriving within it joins the batch, and the union of their vertices runs
// through one sparsity-aware gather pass. Dense request streams therefore
// pay one receptive-field expansion for many requests — the serving twin of
// full-batch training's amortization — while an idle server still answers a
// lone request within the window deadline.
//
// A batch closes early when its distinct-vertex count reaches maxBatch, so
// the latency deadline never inflates the gather beyond what one inference
// can absorb.
type Batcher struct {
	window   time.Duration
	maxBatch int
	exec     batchExec
	onBatch  func(requests, vertices, gathered int)

	reqs chan *batchReq
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

// batchReq is one in-flight request: distinct vertices in, aligned rows and
// classes (plus the generation that computed them) out.
type batchReq struct {
	vertices []int
	rows     [][]float64
	classes  []int
	gen      uint64
	err      error
	done     chan struct{}
}

// NewBatcher starts the collection loop. exec must be safe to call from the
// batcher goroutine; onBatch (optional) observes each executed batch for
// metrics.
func NewBatcher(window time.Duration, maxBatch int, exec batchExec, onBatch func(requests, vertices, gathered int)) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &Batcher{
		window:   window,
		maxBatch: maxBatch,
		exec:     exec,
		onBatch:  onBatch,
		reqs:     make(chan *batchReq),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.loop()
	return b
}

// Do submits a request's distinct vertices and blocks until its batch
// executes (or ctx is cancelled / the batcher closes). The returned rows
// alias batch-owned immutable storage; the uint64 is the model generation
// that computed them.
func (b *Batcher) Do(ctx context.Context, vertices []int) ([][]float64, []int, uint64, error) {
	r := &batchReq{vertices: vertices, done: make(chan struct{})}
	select {
	case b.reqs <- r:
	case <-b.quit:
		return nil, nil, 0, ErrClosed
	case <-ctx.Done():
		return nil, nil, 0, ctx.Err()
	}
	select {
	case <-r.done:
		return r.rows, r.classes, r.gen, r.err
	case <-ctx.Done():
		// The batch still executes; only this waiter abandons the result.
		return nil, nil, 0, ctx.Err()
	}
}

// Close flushes the in-flight batch and stops the loop. Requests submitted
// after Close fail with ErrClosed; requests already accepted are answered.
func (b *Batcher) Close() {
	b.once.Do(func() { close(b.quit) })
	<-b.done
}

// loop collects requests into batches and executes them.
func (b *Batcher) loop() {
	defer close(b.done)
	var timer *time.Timer
	for {
		var first *batchReq
		select {
		case first = <-b.reqs:
		case <-b.quit:
			// Drain anything that won the send race with Close.
			for {
				select {
				case r := <-b.reqs:
					b.run([]*batchReq{r})
				default:
					return
				}
			}
		}
		batch := []*batchReq{first}
		distinct := b.distinctUpperBound(batch)
		if timer == nil {
			timer = time.NewTimer(b.window)
		} else {
			timer.Reset(b.window)
		}
	collect:
		for distinct < b.maxBatch {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
				distinct += len(r.vertices)
			case <-timer.C:
				break collect
			case <-b.quit:
				break collect
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		b.run(batch)
	}
}

// safeExec shields the collection loop from a panicking exec: the panic
// becomes an ErrInferencePanic failing only this batch, instead of killing
// the loop goroutine and wedging every future request.
func (b *Batcher) safeExec(vertices []int) (rows [][]float64, classes []int, gathered int, gen uint64, err error) {
	defer func() {
		if e := recover(); e != nil {
			rows, classes, gathered, gen = nil, nil, 0, 0
			err = fmt.Errorf("%w: %v", ErrInferencePanic, e)
		}
	}()
	return b.exec(vertices)
}

// distinctUpperBound is the cheap batch-size signal: summed request sizes
// (requests never repeat a vertex internally, so overlap only shrinks it).
func (b *Batcher) distinctUpperBound(batch []*batchReq) int {
	n := 0
	for _, r := range batch {
		n += len(r.vertices)
	}
	return n
}

// run executes one batch: union the vertices, infer once, scatter rows back
// to every request, and wake the waiters.
func (b *Batcher) run(batch []*batchReq) {
	pos := make(map[int]int)
	var union []int
	for _, r := range batch {
		for _, v := range r.vertices {
			if _, ok := pos[v]; !ok {
				pos[v] = 0
				union = append(union, v)
			}
		}
	}
	sort.Ints(union)
	for i, v := range union {
		pos[v] = i
	}
	rows, classes, gathered, gen, err := b.safeExec(union)
	if err == nil && b.onBatch != nil {
		b.onBatch(len(batch), len(union), gathered)
	}
	for _, r := range batch {
		if err != nil {
			r.err = err
		} else {
			r.gen = gen
			r.rows = make([][]float64, len(r.vertices))
			r.classes = make([]int, len(r.vertices))
			for i, v := range r.vertices {
				r.rows[i] = rows[pos[v]]
				r.classes[i] = classes[pos[v]]
			}
		}
		close(r.done)
	}
}
