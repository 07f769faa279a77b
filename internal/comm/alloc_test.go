package comm

import (
	"runtime"
	"testing"

	"sagnn/internal/machine"
)

// TestCollectivesSteadyStateAllocs pins every Into primitive at the launch
// floor: once a warm-up launch has filled the buffer pool and the ledger's
// phases, a launch that runs one primitive on every rank allocates no more
// than a launch whose closure captures the same workspaces and does nothing.
// What is left is World.Run's per-rank goroutine fan-out; a payload copy, a
// landing slice or a pool miss per message would show above it. RecvInto is
// TryRecvInto plus a panic on error, so the first case measures both.
func TestCollectivesSteadyStateAllocs(t *testing.T) {
	const p, n = 4, 256 // n/p = 64 elements a bucket: every payload is pooled
	w := NewWorld(p, machine.Perlmutter())
	g := w.WorldGroup()
	data, out := make([][]float64, p), make([][]float64, p)
	send, recv := make([][][]float64, p), make([][][]float64, p)
	for i := range data {
		data[i], out[i] = make([]float64, n), make([]float64, n)
		send[i], recv[i] = make([][]float64, p), make([][]float64, p)
		for j := range send[i] {
			send[i][j], recv[i][j] = make([]float64, n/p), make([]float64, n/p)
		}
	}
	launch := func(fn func(r *Rank)) func() { return func() { w.Run(fn) } }
	bare := launch(func(r *Rank) { _, _, _, _, _ = g, data[r.ID], out[r.ID], send[r.ID], recv[r.ID] })
	bare()
	// 100 runs, as in distmm's multiplyAllocs: the integer mean absorbs the
	// scheduler's occasional allocation under -race and load.
	floor := testing.AllocsPerRun(100, bare)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Send+RecvInto", launch(func(r *Rank) {
			r.Send((r.ID+1)%p, 3, data[r.ID], "p2p")
			r.RecvInto((r.ID+p-1)%p, 3, out[r.ID])
		})},
		{"BcastFloatsInto", launch(func(r *Rank) { g.BcastFloatsInto(r, 1, data[r.ID], out[r.ID], "bcast") })},
		{"AllReduceSumInto", launch(func(r *Rank) { g.AllReduceSumInto(r, data[r.ID], out[r.ID], "allreduce") })},
		{"AllToAllvInto", launch(func(r *Rank) { g.AllToAllvInto(r, send[r.ID], recv[r.ID], "alltoall") })},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.run() // fill the pool and the ledger's phase
			if allocs := testing.AllocsPerRun(100, c.run); allocs > floor {
				t.Errorf("a steady-state launch allocates %v times, a bare launch %v", allocs, floor)
			}
		})
	}
}

// TestWireSteadyStateAllocs is the same pin over four loopback TCP worlds,
// at a width that spans several socket writes: once warm, a launch that runs
// one primitive on every rank allocates no more than a bare launch. The
// count is process-wide, so the writer and reader goroutines are in it: an
// encoded frame, a boxed free-list entry or a decode buffer per message
// would show above the floor.
func TestWireSteadyStateAllocs(t *testing.T) {
	const p, n = 4, 4096
	f := newFleet(t, "tcp", p)
	g := make([]*Group, p)
	for i := range g {
		g[i] = f.world(i).WorldGroup()
	}
	data, out := make([][]float64, p), make([][]float64, p)
	send, recv := make([][][]float64, p), make([][][]float64, p)
	for i := range data {
		data[i], out[i] = make([]float64, n), make([]float64, n)
		send[i], recv[i] = make([][]float64, p), make([][]float64, p)
		for j := range send[i] {
			send[i][j], recv[i][j] = make([]float64, n/p), make([]float64, n/p)
		}
	}
	launch := func(fn func(r *Rank)) func() {
		prog := func(r *Rank) error { fn(r); return nil }
		return func() {
			for i, err := range f.run(prog) {
				if err != nil {
					t.Fatalf("world %d: %v", i, err)
				}
			}
		}
	}
	bare := launch(func(r *Rank) { _, _, _, _, _ = g[r.ID], data[r.ID], out[r.ID], send[r.ID], recv[r.ID] })
	bare()
	floor := testing.AllocsPerRun(100, bare)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Send+RecvInto", launch(func(r *Rank) {
			r.Send((r.ID+1)%p, 3, data[r.ID], "p2p")
			r.RecvInto((r.ID+p-1)%p, 3, out[r.ID])
		})},
		{"BcastFloatsInto", launch(func(r *Rank) { g[r.ID].BcastFloatsInto(r, 1, data[r.ID], out[r.ID], "bcast") })},
		{"AllReduceSumInto", launch(func(r *Rank) { g[r.ID].AllReduceSumInto(r, data[r.ID], out[r.ID], "allreduce") })},
		{"AllToAllvInto", launch(func(r *Rank) { g[r.ID].AllToAllvInto(r, send[r.ID], recv[r.ID], "alltoall") })},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.run() // fill the buffer pool, the frame free list and the ledger's phase
			if allocs := testing.AllocsPerRun(100, c.run); allocs > floor {
				t.Errorf("a steady-state launch allocates %v times, a bare launch %v", allocs, floor)
			}
		})
	}
}

// TestInboxDrainIntoAllocs pins the reset path of both transports: draining
// queued messages back into the buffer pool allocates nothing.
func TestInboxDrainIntoAllocs(t *testing.T) {
	pool := newBufPool()
	b := inbox{sig: make(chan struct{}, 1)}
	cycle := func() {
		for i := 0; i < 4; i++ {
			b.push(message{floats: pool.get(128)})
		}
		drainInto(&b, &pool)
	}
	cycle() // size the queue and fill the pool
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("a warm push/drain cycle allocates %v times, want 0", allocs)
	}
}

// TestNewWorldFootprint bounds what an in-process world costs to build at the
// paper's largest P: one unbounded inbox per (dst, src, lane) is ~150 bytes,
// 2·P² of them about 20 MB at P = 256.
func TestNewWorldFootprint(t *testing.T) {
	const p, limit = 256, 32 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := NewWorld(p, machine.Perlmutter())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("NewWorld(%d) allocates %.1f MB, want ≤ %d MB", p, float64(got)/(1<<20), limit>>20)
	}
}
