package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"sagnn"
	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gcn"
	"sagnn/internal/machine"
	"sagnn/internal/minibatch"
	"sagnn/internal/opt"
	"sagnn/internal/partition"
	"sagnn/internal/sparse"
)

// The traced run is a ladder. The harness measures from outside the
// program, so instead of reading spans the program recorded it rebuilds the
// workload's stack bottom-up from each layer's public constructors, times
// every rung with the operands the rung above passes it, and derives self
// time by subtracting child rungs × their call counts (selfTime). A rung
// that is not on a workload's stack reads 0 there.

// prepared is a dataset staged for the workload's block-row distribution,
// rebuilt exactly as Cluster.Distribute stages it: the (GVB-permuted)
// normalized adjacency, relabeled features, labels and training set, and
// the block-row layout.
type prepared struct {
	aHat       *sparse.CSR
	x          *dense.Matrix
	labels     []int
	train      []int
	layout     distmm.Layout
	quality    partition.Quality
	partitionS float64 // Partition + Evaluate wall-clock
	dims       []int
}

func prepare(spec workloadSpec, ds *sagnn.Dataset) *prepared {
	cfg := spec.modelConfig()
	p := &prepared{
		aHat:   ds.G.NormalizedAdjacency(),
		x:      ds.Features,
		labels: ds.Labels,
		train:  ds.Train,
		dims:   gcn.LayerDims(ds.FeatureDim(), cfg.Hidden, ds.Classes, cfg.Layers),
	}
	var pt partition.Partitioner = partition.Block{}
	if spec.gvb {
		pt = partition.GVB{Seed: gvbSeed}
	}
	start := time.Now()
	part := pt.Partition(ds.G, processes)
	p.quality = partition.Evaluate(pt.Name(), ds.G, part)
	p.partitionS = time.Since(start).Seconds()
	if !spec.gvb {
		p.layout = distmm.UniformLayout(ds.G.NumVertices(), processes)
		return p
	}
	perm := part.Perm()
	p.aHat = p.aHat.PermuteSymmetric(perm)
	var sets [][]int
	p.x, p.labels, sets = gcn.ApplyPerm(perm, p.x, p.labels, p.train)
	p.train = sets[0]
	p.layout = distmm.LayoutFromOffsets(part.Offsets())
	return p
}

func (p *prepared) sampledTrainer(w *comm.World, spec workloadSpec) *minibatch.Dist {
	cfg := spec.modelConfig()
	return minibatch.NewDist(w, p.layout, p.aHat, p.x, p.labels, p.train, p.dims, cfg.Seed,
		func() opt.Optimizer { return &opt.SGD{LR: cfg.LR} },
		minibatch.DistConfig{Fanout: sampleFanout, BatchSize: sampleBatch, Seed: cfg.Seed})
}

// sampledReference trains the serial mirror of the distributed sampled
// schedule (minibatch.Dist.ReferenceEpochs) over the same staged data a
// session trains on.
func sampledReference(spec workloadSpec, ds *sagnn.Dataset, epochs int) []sagnn.EpochResult {
	w := comm.NewWorld(processes, machine.Perlmutter())
	return prepare(spec, ds).sampledTrainer(w, spec).ReferenceEpochs(epochs)
}

// fleet is the comm layer of a workload's stack: one world hosting every
// rank on the sim transport, or one TCP world per rank on loopback.
type fleet struct {
	worlds []*comm.World
}

func newFleet(tcp bool) (*fleet, error) {
	if !tcp {
		return &fleet{worlds: []*comm.World{comm.NewWorld(processes, machine.Perlmutter())}}, nil
	}
	addrs, err := freeAddrs(processes)
	if err != nil {
		return nil, err
	}
	f := &fleet{worlds: make([]*comm.World, processes)}
	err = parallel(processes, func(i int) error {
		var err error
		f.worlds[i], err = comm.NewWorldTCP(i, addrs, machine.Perlmutter())
		return err
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// run executes fn on every rank of every world at once and waits for all of
// them: one bulk-synchronous collective launch.
func (f *fleet) run(fn func(world int, r *comm.Rank) error) error {
	return parallel(len(f.worlds), func(i int) error {
		return f.worlds[i].RunErr(func(r *comm.Rank) error { return fn(i, r) })
	})
}

func (f *fleet) close() {
	_ = parallel(len(f.worlds), func(i int) error {
		if w := f.worlds[i]; w != nil {
			return w.Close()
		}
		return nil
	})
}

// volumes snapshots every rank's counters from the world that hosts it.
func (f *fleet) volumes() []*comm.VolumeSnapshot {
	snaps := make([]*comm.VolumeSnapshot, len(f.worlds))
	for i, w := range f.worlds {
		snaps[i] = w.Stats().Snapshot()
	}
	return snaps
}

// sentBy returns the bytes rank sent between two volumes() snapshots.
func (f *fleet) sentBy(before, after []*comm.VolumeSnapshot, rank int) int64 {
	w := 0
	if len(f.worlds) > 1 {
		w = rank
	}
	return after[w].Sub(before[w]).BytesSent(rank)
}

// messages returns how many messages all ranks have sent so far.
func (f *fleet) messages() int64 {
	var msgs int64
	for _, w := range f.worlds {
		for _, rank := range w.Hosted() {
			msgs += w.Stats().MsgsSent(rank)
		}
	}
	return msgs
}

// ladder carries one traced run.
type ladder struct {
	spec workloadSpec
	ds   *sagnn.Dataset
	tr   *tracer
	vals map[string]float64
	seed int64
	rng  *rand.Rand
	err  error // first failure; later rungs are skipped

	multipliesMs float64 // the plan executor's share of one epoch: Σ MultiplyInto over the epoch's widths
}

// rung calls fn once untimed, then reps times under a span each, and
// returns the median wall-clock of one operation in ms; fn performs inner
// operations per call.
func (l *ladder) rung(name, parent string, reps, inner int, fn func() error) float64 {
	if l.err != nil {
		return 0
	}
	if l.err = fn(); l.err != nil {
		l.err = fmt.Errorf("%s: %w", name, l.err)
		return 0
	}
	ms := make([]float64, reps)
	for i := range ms {
		start := time.Now()
		if l.err = fn(); l.err != nil {
			l.err = fmt.Errorf("%s: %w", name, l.err)
			return 0
		}
		end := time.Now()
		l.tr.record(name, parent, 0, start, end)
		ms[i] = end.Sub(start).Seconds() * 1e3 / float64(inner)
	}
	return median(ms)
}

func (l *ladder) randomMatrix(rows, cols int) *dense.Matrix {
	return dense.NewRandom(l.rng, rows, cols, 1)
}

// zeroed returns a 0 for every per-layer metric, so a rung off this
// workload's stack reads 0.
func zeroed(defs []metricDef) map[string]float64 {
	vals := make(map[string]float64, len(defs))
	for _, d := range defs {
		vals[d.Name] = 0
	}
	return vals
}

const gflop = 1e9

func runLadder(man *manifest, spec workloadSpec, ds *sagnn.Dataset, o runOptions, c *checker) (map[string]float64, error) {
	l := &ladder{spec: spec, ds: ds, tr: newTracer(spec.name), vals: zeroed(man.PerLayer), seed: o.seed, rng: rand.New(rand.NewSource(o.seed))}
	v := l.vals

	l.host(o.probeScale)

	prepStart := time.Now()
	p := prepare(spec, ds)
	l.tr.record("partition.prepare", "sagnn.distribute", 0, prepStart, time.Now())
	v["partition.partition_s"] = p.partitionS
	v["partition.cut_edges"] = float64(p.quality.EdgeCut)
	v["partition.total_rows"] = float64(p.quality.TotalRows)
	v["partition.max_send_rows"] = float64(p.quality.MaxSendRows)

	l.kernels(p)

	f, err := newFleet(spec.tcp)
	if err != nil {
		return nil, err
	}
	defer f.close()
	l.collectives(f, p)
	engines := l.engines(f, p)
	l.trainers(f, p, engines, c)
	if spec.sampled {
		l.sampled(f, p, c)
	}
	if l.err != nil {
		return nil, l.err
	}
	// Half the window: the rungs below it have already measured for as long.
	if err := l.session(o.window/2, c); err != nil {
		return nil, err
	}
	if err := l.tr.write(o.traceDir); err != nil {
		return nil, err
	}
	return v, nil
}

// host measures the stated rooflines in the same run as the kernel rungs.
func (l *ladder) host(scale float64) {
	iters := int(2e7 * scale)
	start := time.Now()
	l.vals["host.peak_gflops"] = peakGflops(iters)
	l.tr.record("host.peak_gflops", "", 0, start, time.Now())

	llc := llcBytes()
	if llc == 0 {
		llc = 32 << 20
	}
	// Three arrays whose total footprint is 4× the last-level cache, capped
	// at 2 GiB so a host reporting a socket-wide LLC stays cheap to probe.
	total := 4 * llc
	if total > 2<<30 {
		total = 2 << 30
	}
	elems := int(float64(total/24) * scale)
	start = time.Now()
	l.vals["host.stream_gb_per_s"] = streamGBPerS(elems)
	l.tr.record("host.stream_gb_per_s", "", 0, start, time.Now())
	// Hand the triad's arrays back now: left to the background scavenger they
	// slowed every later rung by a third on the 2-core reference host.
	debug.FreeOSMemory()
	logf("host: LLC %d MiB, triad footprint %d MiB, %d multiply-add iterations per worker", llc>>20, 24*elems>>20, iters)
}

// kernels times the dense and sparse kernels at rank 0's layer-1 shapes.
func (l *ladder) kernels(p *prepared) {
	v := l.vals
	lo, hi := p.layout.Range(0)
	rows, n := hi-lo, p.layout.N()
	f, h, h2 := p.dims[0], p.dims[1], p.dims[2]

	a, w, z := l.randomMatrix(rows, f), l.randomMatrix(f, h), dense.New(rows, h)
	g, yl := l.randomMatrix(rows, h), dense.New(f, h)
	flops := 2 * float64(rows) * float64(f) * float64(h)
	v["dense.matmul_ms"] = l.rung("dense.matmul", "gcn.dist_epoch", 7, 1, func() error { dense.MatMulInto(z, a, w); return nil })
	v["dense.matmul_gflops"] = flops / (v["dense.matmul_ms"] / 1e3) / gflop
	v["dense.matmul_transa_ms"] = l.rung("dense.matmul_transa", "gcn.dist_epoch", 7, 1, func() error { dense.MatMulTransAInto(yl, a, g); return nil })
	v["dense.matmul_transa_gflops"] = flops / (v["dense.matmul_transa_ms"] / 1e3) / gflop
	ag, w2, gPrev := l.randomMatrix(rows, h2), l.randomMatrix(h, h2), dense.New(rows, h)
	v["dense.matmul_transb_ms"] = l.rung("dense.matmul_transb", "gcn.dist_epoch", 7, 1, func() error { dense.MatMulTransBInto(gPrev, ag, w2); return nil })

	blk := p.aHat.RowBlock(lo, hi)
	wide, narrow := l.randomMatrix(n, f), l.randomMatrix(n, h)
	outWide, outNarrow := dense.New(rows, f), dense.New(rows, h)
	v["sparse.spmm_ms"] = l.rung("sparse.spmm", "distmm.multiply_wide", 7, 1, func() error { blk.SpMMInto(outWide, wide); return nil })
	v["sparse.spmm_gflops"] = float64(blk.Flops(f)) / (v["sparse.spmm_ms"] / 1e3) / gflop
	v["sparse.spmm_narrow_ms"] = l.rung("sparse.spmm_narrow", "distmm.multiply_narrow", 7, 1, func() error { blk.SpMMInto(outNarrow, narrow); return nil })
}

// sendRows returns, for every ordered pair, how many rows of rank i's block
// of H rank j's block of Â touches: the sparsity-aware exchange's sizes.
func sendRows(p *prepared) [][]int {
	counts := make([][]int, processes)
	for i := range counts {
		counts[i] = make([]int, processes)
	}
	for j := 0; j < processes; j++ {
		jlo, jhi := p.layout.Range(j)
		blk := p.aHat.RowBlock(jlo, jhi)
		for i := 0; i < processes; i++ {
			if i != j {
				ilo, ihi := p.layout.Range(i)
				counts[i][j] = len(blk.NnzColsInRange(sparse.ColRange{Lo: ilo, Hi: ihi}))
			}
		}
	}
	return counts
}

const pingTag = 1 << 20

// collectives times the comm primitives on the workload's transport with
// the workload's own message sizes: a ping-pong sweep fitted to α–β, one
// H-block broadcast, the sparsity-aware all-to-allv, one gradient all-reduce.
func (l *ladder) collectives(f *fleet, p *prepared) {
	v := l.vals
	var samples []machine.FitSample
	for _, n := range comm.DefaultCalibrationSizes() {
		const trips = 10
		var oneWay float64
		l.rung("comm.pingpong", "", 1, 1, func() error {
			return f.run(func(_ int, r *comm.Rank) error {
				if r.ID > 1 {
					return nil
				}
				buf := make([]float64, n)
				start := time.Now()
				for k := 0; k < trips; k++ {
					if r.ID == 0 {
						r.Send(1, pingTag, buf, "bench")
					}
					if err := r.TryRecvInto(1-r.ID, pingTag, buf); err != nil {
						return err
					}
					if r.ID == 1 {
						r.Send(0, pingTag, buf, "bench")
					}
				}
				if r.ID == 0 {
					oneWay = time.Since(start).Seconds() / (2 * trips)
				}
				return nil
			})
		})
		samples = append(samples, machine.FitSample{Bytes: int64(n) * machine.BytesPerElem, Seconds: oneWay})
	}
	if l.err != nil {
		return
	}
	alpha, beta, err := machine.FitAlphaBeta(samples)
	if err != nil {
		l.err = err
		return
	}
	v["comm.pingpong_alpha_us"] = alpha * 1e6
	v["comm.pingpong_gb_per_s"] = 1 / beta / 1e9

	lo, hi := p.layout.Range(0)
	fdim, h := p.dims[0], p.dims[1]
	block := make([]float64, (hi-lo)*fdim)
	landing := make([][]float64, processes)
	for i := range landing {
		landing[i] = make([]float64, len(block))
	}
	const inner = 5
	v["comm.bcast_ms"] = l.rung("comm.bcast", "distmm.multiply_wide", 5, inner, func() error {
		return f.run(func(_ int, r *comm.Rank) error {
			for k := 0; k < inner; k++ {
				r.World().WorldGroup().BcastFloatsInto(r, 0, block, landing[r.ID], "bench")
			}
			return nil
		})
	})

	counts := sendRows(p)
	send, recv := make([][][]float64, processes), make([][][]float64, processes)
	for i := 0; i < processes; i++ {
		send[i], recv[i] = make([][]float64, processes), make([][]float64, processes)
		for j := 0; j < processes; j++ {
			send[i][j] = make([]float64, counts[i][j]*fdim)
			recv[i][j] = make([]float64, counts[j][i]*fdim)
		}
	}
	v["comm.alltoallv_ms"] = l.rung("comm.alltoallv", "distmm.multiply_wide", 5, inner, func() error {
		return f.run(func(_ int, r *comm.Rank) error {
			for k := 0; k < inner; k++ {
				r.World().WorldGroup().AllToAllvInto(r, send[r.ID], recv[r.ID], "bench")
			}
			return nil
		})
	})

	grads, sums := make([][]float64, processes), make([][]float64, processes)
	for i := range grads {
		grads[i], sums[i] = make([]float64, fdim*h), make([]float64, fdim*h)
	}
	v["comm.allreduce_ms"] = l.rung("comm.allreduce", "gcn.dist_epoch", 5, inner, func() error {
		return f.run(func(_ int, r *comm.Rank) error {
			for k := 0; k < inner; k++ {
				r.World().WorldGroup().AllReduceSumInto(r, grads[r.ID], sums[r.ID], "bench")
			}
			return nil
		})
	})
}

// engines compiles the workload's engine on every world and times the plan
// executor at each dense width an epoch multiplies at.
func (l *ladder) engines(f *fleet, p *prepared) []distmm.Engine {
	if l.err != nil {
		return nil
	}
	v := l.vals
	engines := make([]distmm.Engine, len(f.worlds))
	start := time.Now()
	l.err = parallel(len(f.worlds), func(i int) error {
		var err error
		engines[i], err = distmm.NewEngine(f.worlds[i], string(l.spec.alg), 1, p.aHat, p.layout)
		return err
	})
	if l.err != nil {
		return nil
	}
	l.tr.record("distmm.compile", "sagnn.distribute", 0, start, time.Now())
	v["distmm.compile_s"] = time.Since(start).Seconds()
	plan := engines[0].Plan()
	v["distmm.verify_ms"] = l.rung("distmm.verify", "sagnn.distribute", 3, 1, func() error { return distmm.Verify(plan) })

	multiply := func(name string, width int, mode distmm.ExecMode) float64 {
		in, out := make([]*dense.Matrix, processes), make([]*dense.Matrix, processes)
		for r := 0; r < processes; r++ {
			in[r], out[r] = l.randomMatrix(p.layout.Count(r), width), dense.New(p.layout.Count(r), width)
		}
		for _, e := range engines {
			e.SetExecMode(mode)
		}
		ms := l.rung(name, "gcn.dist_epoch", 5, 1, func() error {
			return f.run(func(w int, r *comm.Rank) error {
				engines[w].MultiplyInto(r, in[r.ID], out[r.ID])
				return nil
			})
		})
		for _, e := range engines {
			e.SetExecMode(distmm.ExecSequential)
		}
		return ms
	}
	fdim, h, classes := p.dims[0], p.dims[1], p.dims[len(p.dims)-1]
	byWidth := map[int]float64{
		fdim:    multiply("distmm.multiply_wide", fdim, distmm.ExecSequential),
		h:       multiply("distmm.multiply_narrow", h, distmm.ExecSequential),
		classes: multiply("distmm.multiply_classes", classes, distmm.ExecSequential),
	}
	v["distmm.multiply_wide_ms"] = byWidth[fdim]
	v["distmm.multiply_narrow_ms"] = byWidth[h]
	v["distmm.multiply_overlap_ms"] = multiply("distmm.multiply_overlap", fdim, distmm.ExecOverlap)

	// The plan priced under this host's own constants: the fitted α–β and
	// the flop and copy rates the rungs above measured.
	params := machine.Params{
		Alpha:        v["comm.pingpong_alpha_us"] / 1e6,
		Beta:         1 / (v["comm.pingpong_gb_per_s"] * 1e9),
		SpMMRate:     v["sparse.spmm_gflops"] * gflop,
		GEMMRate:     v["dense.matmul_gflops"] * gflop,
		MemBandwidth: v["host.stream_gb_per_s"] * 1e9,
	}
	widths := gcn.EpochMultiplyWidths(fdim, h, classes, len(p.dims)-1, false)
	measured := 0.0
	for _, w := range widths {
		measured += byWidth[w]
	}
	v["distmm.cost_predicted_ms"] = plan.EpochCost(params, widths).Total() * 1e3
	v["distmm.cost_residual"] = measured / v["distmm.cost_predicted_ms"]
	l.multipliesMs = measured
	return engines
}

// trainers times one distributed epoch (and checks its traffic against the
// plan rank by rank), the single-worker epoch of the same task, and derives
// the trainer's self time.
func (l *ladder) trainers(f *fleet, p *prepared, engines []distmm.Engine, c *checker) {
	if l.err != nil {
		return
	}
	v := l.vals
	cfg := l.spec.modelConfig()
	steppers := make([]*gcn.Stepper, len(f.worlds))
	for i, w := range f.worlds {
		steppers[i] = gcn.NewDistributed(w, engines[i], p.x, p.labels, p.train, p.dims, cfg.LR, cfg.Seed).Stepper()
	}
	step := func() error {
		return parallel(len(steppers), func(i int) error {
			_, err := steppers[i].StepNCtx(context.Background(), 1)
			return err
		})
	}
	// Workspaces and the transport's frame pools keep growing for the first
	// few epochs (five over TCP before the epoch time settles).
	for warm := 0; warm < 5 && l.err == nil; warm++ {
		l.err = step()
	}
	if l.err != nil {
		return
	}
	const reps = 7
	before, msgsBefore := f.volumes(), f.messages()
	v["gcn.dist_epoch_ms"] = l.rung("gcn.dist_epoch", "sagnn.session_step", reps, 1, step)
	after, msgsAfter := f.volumes(), f.messages()
	if l.err != nil {
		return
	}

	// rung ran reps+1 epochs between the snapshots. Every rank's traffic
	// must equal the plan's prediction plus the per-epoch all-reduces.
	const epochs = reps + 1
	widths := gcn.EpochMultiplyWidths(p.dims[0], p.dims[1], p.dims[len(p.dims)-1], len(p.dims)-1, false)
	spmm := engines[0].Plan().EpochSentBytes(widths)
	ar := allReduceBytesPerEpoch(l.ds, cfg)
	var total int64
	for rank := 0; rank < processes; rank++ {
		sent := f.sentBy(before, after, rank)
		want := (spmm[rank] + ar) * epochs
		c.check(sent == want, "rank %d sent %d bytes over %d epochs, plan predicts %d", rank, sent, epochs, want)
		total += sent
	}
	v["comm.sent_mb_per_epoch_avg"] = float64(total) / processes / epochs / 1e6
	v["comm.msgs_per_epoch"] = float64(msgsAfter-msgsBefore) / epochs

	serial := gcn.NewSerial(p.aHat, p.x, p.labels, p.train, gcn.NewModel(cfg.Seed, p.dims), cfg.LR)
	v["gcn.serial_epoch_ms"] = l.rung("gcn.serial_epoch", "", 3, 1, func() error { serial.Epoch(); return nil })

	L := len(p.dims) - 1
	v["gcn.epoch_self_ms"] = selfTime(v["gcn.dist_epoch_ms"],
		child{l.multipliesMs, 1},
		child{v["dense.matmul_ms"], 1},
		child{v["dense.matmul_transa_ms"], 1},
		child{v["dense.matmul_transb_ms"], L - 1},
		child{v["comm.allreduce_ms"], L})
}
