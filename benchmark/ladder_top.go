package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sagnn"
	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/serve"
	"sagnn/internal/sparse"
)

// The upper rungs of the ladder: the sampled trainer, the session, the
// serving tier and the router, and the traced window of the workload itself.

// sampleBottoms draws one representative batch per rank the way the sampled
// trainer shapes it — up to sampleBatch of the rank's training vertices,
// widened hop by hop by up to sampleFanout neighbours each — and returns
// every rank's bottom block: frontier rows × global columns.
func (l *ladder) sampleBottoms(p *prepared) []*sparse.CSR {
	n := p.layout.N()
	hops := len(p.dims) - 2
	pick := func(v int, into map[int]bool) {
		row := p.aHat.ColIdx[p.aHat.RowPtr[v]:p.aHat.RowPtr[v+1]]
		for k := 0; k < sampleFanout && len(row) > 0; k++ {
			into[row[l.rng.Intn(len(row))]] = true
		}
	}
	bottoms := make([]*sparse.CSR, processes)
	for rank := range bottoms {
		lo, hi := p.layout.Range(rank)
		frontier := map[int]bool{}
		for _, v := range p.train {
			if v >= lo && v < hi && len(frontier) < sampleBatch {
				frontier[v] = true
			}
		}
		for hop := 0; hop < hops; hop++ {
			next := map[int]bool{}
			for v := range frontier {
				next[v] = true
				pick(v, next)
			}
			frontier = next
		}
		rows := make([]int, 0, len(frontier))
		for v := range frontier {
			rows = append(rows, v)
		}
		sort.Ints(rows)
		var coords []sparse.Coord
		for i, v := range rows {
			cols := map[int]bool{v: true}
			pick(v, cols)
			for c := range cols {
				coords = append(coords, sparse.Coord{Row: i, Col: c, Val: 1 / float64(len(cols))})
			}
		}
		bottoms[rank] = sparse.NewCSR(len(rows), n, coords)
	}
	return bottoms
}

// sampled times the sampled trainer's rungs: compiling one batch's gather
// plan, executing it, and a whole sampled epoch, whose traffic is checked
// rank by rank against DistStepper.PredictedVolumes.
func (l *ladder) sampled(f *fleet, p *prepared, c *checker) {
	if l.err != nil {
		return
	}
	if len(f.worlds) != 1 {
		l.err = fmt.Errorf("%s: the sampled rungs are written for the sim transport", l.spec.name)
		return
	}
	v, w := l.vals, f.worlds[0]
	bottoms := l.sampleBottoms(p)
	gather := distmm.NewSampledGather(w, bottoms, p.layout)
	v["distmm.sampled_recompile_ms"] = l.rung("distmm.sampled_recompile", "minibatch.dist_step", 5, 1, func() error {
		gather.Recompile(bottoms)
		return nil
	})
	fdim := p.dims[0]
	in, out := make([]*dense.Matrix, processes), make([]*dense.Matrix, processes)
	for r := range in {
		in[r], out[r] = l.randomMatrix(p.layout.Count(r), fdim), dense.New(gather.OutRows(r), fdim)
	}
	gatherMs := l.rung("distmm.sampled_multiply", "minibatch.dist_step", 5, 1, func() error {
		return f.run(func(_ int, r *comm.Rank) error {
			gather.MultiplyInto(r, in[r.ID], out[r.ID])
			return nil
		})
	})

	before := f.volumes()
	st := p.sampledTrainer(w, l.spec).Stepper()
	v["minibatch.dist_step_ms"] = l.rung("minibatch.dist_step", "sagnn.session_step", 3, 1, func() error {
		_, err := st.StepNCtx(context.Background(), 1)
		return err
	})
	after := f.volumes()
	if l.err != nil {
		return
	}
	for rank, want := range st.PredictedVolumes() {
		sent := f.sentBy(before, after, rank)
		c.check(sent == want.SentBytes, "sampled: rank %d sent %d bytes, the batch plans predict %d", rank, sent, want.SentBytes)
	}

	steps := 0
	for rank := 0; rank < processes; rank++ {
		lo, hi := p.layout.Range(rank)
		local := 0
		for _, t := range p.train {
			if t >= lo && t < hi {
				local++
			}
		}
		steps = max(steps, (local+sampleBatch-1)/sampleBatch)
	}
	L := len(p.dims) - 1
	v["minibatch.step_self_ms"] = selfTime(v["minibatch.dist_step_ms"],
		child{v["distmm.sampled_recompile_ms"], steps},
		child{gatherMs, steps},
		child{v["comm.allreduce_ms"], steps * L})
}

// tracedWindow is the traced run of the workload itself. Operations
// alternate between traced and untraced stretches of stretch operations; on
// a traced one the harness records a span, which is all tracing costs from
// outside. The ratio of the two mean durations is trace.overhead_ratio.
type tracedWindow struct {
	mu            sync.Mutex
	traced, plain []float64 // ms
}

func (tw *tracedWindow) add(seq, stretch int, ms float64) (traced bool) {
	traced = (seq/stretch)%2 == 1
	tw.mu.Lock()
	if traced {
		tw.traced = append(tw.traced, ms)
	} else {
		tw.plain = append(tw.plain, ms)
	}
	tw.mu.Unlock()
	return traced
}

func (tw *tracedWindow) all() []float64 {
	return append(append([]float64(nil), tw.plain...), tw.traced...)
}

// overheadRatio compares means, not medians: hit-path latency is bimodal
// (pure cache hits return at once, the rest wait out the batch window), and
// the median of a stretch flips between the two modes.
func (tw *tracedWindow) overheadRatio() float64 {
	if len(tw.traced) == 0 || len(tw.plain) == 0 {
		return 0
	}
	return mean(tw.traced) / mean(tw.plain)
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// session sets the workload up once through the public API, times the
// session rungs, runs the workload's window with tracing on and off, and —
// for a serving workload — climbs on through the serving rungs.
func (l *ladder) session(window time.Duration, c *checker) error {
	v, spec := l.vals, l.spec
	rg, err := buildRig(spec, l.ds)
	if err != nil {
		return err
	}
	defer rg.close()
	warm, err := rg.run(spec.warm)
	if err != nil {
		return err
	}

	stepMs := l.rung("sagnn.session_step", "", 7, 1, func() error {
		return parallel(len(rg.sessions), func(i int) error {
			_, err := rg.sessions[i].Step()
			return err
		})
	})
	v["sagnn.session_overhead_ms"] = selfTime(stepMs, child{v["gcn.dist_epoch_ms"], 1})
	var ck *sagnn.Checkpoint
	v["sagnn.snapshot_ms"] = l.rung("sagnn.snapshot", "", 5, 1, func() error {
		ck = rg.sessions[0].Snapshot()
		return nil
	})
	v["sagnn.restore_ms"] = l.rung("sagnn.restore", "", 5, 1, func() error {
		return parallel(len(rg.sessions), func(i int) error { return rg.sessions[i].Restore(ck) })
	})
	if l.err != nil {
		return l.err
	}

	if spec.serve != nil {
		v["sagnn.epoch_p90_ms"] = stepMs // a three-epoch bootstrap has no tail to speak of
		return l.serving(warm[0].Model, window, c)
	}

	var tw tracedWindow
	first := -1
	rg.onEpoch = func(epoch int, start, end time.Time) {
		if first < 0 {
			first = epoch
		}
		if tw.add(epoch-first, 5, end.Sub(start).Seconds()*1e3) {
			l.tr.record("sagnn.epoch", "sagnn.run", 0, start, end)
		}
	}
	start := time.Now()
	timed, _, err := rg.runFor(window)
	if err != nil {
		return err
	}
	l.tr.record("sagnn.run", "", 0, start, time.Now())
	for _, res := range timed[0].History {
		c.check(!math.IsNaN(res.Loss) && !math.IsInf(res.Loss, 0), "epoch %d: loss %v", res.Epoch, res.Loss)
	}
	v["sagnn.epoch_p90_ms"], _ = tailPercentile(tw.all(), 0.9, 10)
	v["trace.overhead_ratio"] = tw.overheadRatio()
	return nil
}

// probeRequests is how many requests the sequential serving rungs replay;
// hotRequests is the size of the hot set the hit-path rungs cycle through.
const (
	probeRequests = 200
	hotRequests   = 50
)

// serving climbs the serving rungs over the bootstrapped model: one batch
// through the gather kernels, the server without and with HTTP, the router
// hop, and the workload's own traced window.
func (l *ladder) serving(model *sagnn.Model, window time.Duration, c *checker) error {
	v, spec, ds := l.vals, l.spec, l.ds
	rq, err := newRequests(l.seed, ds, spec.serve.zipf)
	if err != nil {
		return err
	}
	if rq.want, err = model.Predict(ds, nil); err != nil {
		return err
	}

	// One serving batch at the kernel level: the request's one-hop induced
	// submatrix, and its whole L-hop evaluation.
	data, err := model.MarshalBinary()
	if err != nil {
		return err
	}
	weights := &gcn.Model{}
	if err := weights.UnmarshalBinary(data[1:]); err != nil { // byte 0 is sagnn.Model's variant flag
		return err
	}
	aHat := ds.G.NormalizedAdjacency()
	targets := append([]int(nil), rq.vertices[0]...)
	sort.Ints(targets)
	seen := map[int]bool{}
	var hop []int
	for _, t := range targets {
		for _, col := range aHat.ColIdx[aHat.RowPtr[t]:aHat.RowPtr[t+1]] {
			if !seen[col] {
				seen[col] = true
				hop = append(hop, col)
			}
		}
	}
	sort.Ints(hop)
	colPos := make([]int, aHat.NumCols)
	for i := range colPos {
		colPos[i] = -1
	}
	sub := &sparse.CSR{}
	v["sparse.submatrix_ms"] = l.rung("sparse.submatrix", "gcn.subset_eval", 20, 1, func() error {
		aHat.SubmatrixInto(sub, targets, hop, colPos)
		return nil
	})
	eval := gcn.NewSubsetEval(aHat, ds.Features, weights, gcn.GCNConv)
	probs := dense.New(len(targets), eval.Classes())
	v["gcn.subset_eval_ms"] = l.rung("gcn.subset_eval", "serve.predict", 20, 1, func() error {
		eval.ProbabilitiesInto(probs, targets)
		return nil
	})
	v["gcn.subset_gathered_rows"] = float64(eval.GatheredRows())

	// The server as the workload configures it, with no HTTP in front.
	srv, err := serve.New(ds, model.Clone(), serve.Config{CacheSize: spec.serve.cacheSize})
	if err != nil {
		return err
	}
	classes, rows := make([]int, perRequest), make([][]float64, perRequest)
	predict := func(s *serve.Server, rq *requests, n int) (float64, error) {
		ms := make([]float64, n)
		for i := range ms {
			start := time.Now()
			_, err := s.PredictInto(context.Background(), rq.vertices[i%len(rq.vertices)], classes, rows)
			end := time.Now()
			if err != nil {
				return 0, err
			}
			l.tr.record("serve.predict", "serve.http", 0, start, end)
			ms[i] = end.Sub(start).Seconds() * 1e3
		}
		return median(ms), nil
	}
	v["serve.predict_ms"], err = predict(srv, rq, probeRequests)
	srv.Close()
	if err != nil {
		return err
	}

	// What HTTP and the router add is measured where nothing else moves: a
	// hot set small enough for every cache, replayed until every request is
	// a pure hit, so a reply costs no inference and no batch window. (Replayed
	// cold, the two sides differ by more than the hop: the fleet caches twice
	// as much as one server, and misses drown a 0.2 ms hop in 10 ms of noise.)
	hot := &requests{vertices: rq.vertices[:hotRequests], bodies: rq.bodies[:hotRequests], want: rq.want}
	cached := &serveSpec{replicas: 1, cacheSize: hotRequests * perRequest}
	srv, err = serve.New(ds, model.Clone(), serve.Config{CacheSize: cached.cacheSize})
	if err != nil {
		return err
	}
	var hitPredictMs float64
	if _, err = predict(srv, hot, hotRequests); err == nil { // fills the cache
		hitPredictMs, err = predict(srv, hot, probeRequests)
	}
	srv.Close()
	if err != nil {
		return err
	}
	replayHot := func(name, parent string, ts *serveSpec) (float64, error) {
		t, err := startTier(ts, ds, model)
		if err != nil {
			return 0, err
		}
		defer t.close()
		fill := drive(t.client, t.url, hot, 1, hotRequests, 0, nil)
		lr := drive(t.client, t.url, hot, 1, probeRequests, 0, func(s sample) { l.tr.record(name, parent, 0, s.start, s.end) })
		c.attempted += fill.attempted + lr.attempted
		c.failed += fill.failed + lr.failed
		return medianMs(lr.samples), nil
	}
	httpMs, err := replayHot("serve.http", "router.hop", cached)
	if err != nil {
		return err
	}
	v["serve.http_overhead_ms"] = selfTime(httpMs, child{hitPredictMs, 1})
	if spec.serve.routed {
		routed := *spec.serve
		routed.cacheSize = cached.cacheSize
		routedMs, err := replayHot("router.hop", "", &routed)
		if err != nil {
			return err
		}
		v["router.hop_ms"] = selfTime(routedMs, child{httpMs, 1})
	}

	// The workload's own window, closed loop, tracing on and off by turns.
	t, err := startTier(spec.serve, ds, model)
	if err != nil {
		return err
	}
	defer t.close()
	if warm := drive(t.client, t.url, rq, clients, spec.serve.warm, 0, nil); warm.failed > 0 {
		return fmt.Errorf("%s: %d of %d warm-up requests failed", spec.name, warm.failed, warm.attempted)
	}
	layer := "serve"
	if spec.serve.routed {
		layer = "router"
	}
	var tw tracedWindow
	lr := drive(t.client, t.url, rq, clients, 0, window, func(s sample) {
		if tw.add(s.seq, 50, s.end.Sub(s.start).Seconds()*1e3) {
			l.tr.record(layer+".request", "", 0, s.start, s.end)
		}
	})
	c.attempted += lr.attempted
	c.failed += lr.failed
	v[layer+".latency_p99_ms"], _ = tailPercentile(tw.all(), 0.99, 10)
	v["trace.overhead_ratio"] = tw.overheadRatio()

	var hits, misses, batches uint64
	var gather, occupancy float64
	for _, s := range t.servers {
		m := s.Metrics()
		hits, misses, batches = hits+m.Cache.Hits, misses+m.Cache.Misses, batches+m.Batch.Count
		gather += float64(m.Batch.Count) * m.Batch.GatherRowFraction
		occupancy += float64(m.Batch.Count) * m.Batch.AvgRequests
	}
	if hits+misses > 0 {
		v["serve.cache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	if batches > 0 {
		v["serve.gather_fraction"] = gather / float64(batches)
		v["serve.avg_batch_requests"] = occupancy / float64(batches)
	}
	if t.router != nil {
		m := t.router.Metrics(context.Background())
		if m.Requests > 0 {
			v["router.split_share"] = float64(m.Splits) / float64(m.Requests)
		}
		v["router.reroutes"] = float64(m.Reroutes)
		v["router.gen_retries"] = float64(m.GenRetries)
	}
	return l.err
}
