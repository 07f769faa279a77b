package sagnn

// Multi-process transport tests: the conformance suite proves the TCP
// backend computes bit-for-bit what the simulated communicator computes —
// same losses, same trained weights, same per-rank logical volume ledger —
// for every trainable engine; the chaos suite SIGKILLs a rank mid-epoch, or
// between two launches, and requires every survivor to surface the typed
// *comm.RankError (cause comm.ErrPeerDisconnected) within a bounded deadline
// and shut down without leaking goroutines.
//
// Both suites re-execute the test binary: the parent runs the reference
// schedule on the simulated transport and spawns one child per rank with
// -test.run pinned to the helper, which drops into worker mode via env.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sagnn/internal/comm"
	"sagnn/internal/gcn"
)

const (
	tcpEnvMode  = "SAGNN_TCP_MODE"
	tcpEnvRank  = "SAGNN_TCP_RANK"
	tcpEnvPeers = "SAGNN_TCP_PEERS"
	tcpEnvOut   = "SAGNN_TCP_OUT"
	tcpEnvReady = "SAGNN_TCP_READY"
)

// confRun is one configuration's observable outcome. Losses are IEEE-754
// bits (hex) so JSON cannot round them; Model is a digest of the serialized
// trained weights; Sent/Recv are the logical volume ledger rows this process
// can vouch for (all ranks on sim, the hosted rank on TCP).
type confRun struct {
	Name   string           `json:"name"`
	Losses []string         `json:"losses"`
	Model  string           `json:"model"`
	Sent   map[string]int64 `json:"sent"`
	Recv   map[string]int64 `json:"recv"`
}

type confConfig struct {
	name    string
	alg     Algorithm
	c       int
	sampled bool
	// interleaved follows the full-batch run with a sampled and another
	// full-batch run on the same session.
	interleaved bool
}

func conformanceConfigs() []confConfig {
	var out []confConfig
	for _, a := range []struct {
		alg Algorithm
		c   int
	}{
		{Oblivious1D, 1},
		{SparsityAware1D, 1},
		{Oblivious15D, 2},
		{SparsityAware15D, 2},
	} {
		out = append(out, confConfig{name: fmt.Sprintf("%s/c%d", a.alg, a.c), alg: a.alg, c: a.c})
	}
	// Sampled mini-batch training over the 1D layout: per-batch compiled
	// halo-gather plans must stay bit-identical across transports too.
	out = append(out, confConfig{name: "sampled", alg: SparsityAware1D, c: 1, sampled: true})
	// Run → RunSampled → Run on one session: the sampled leg reshapes the
	// step buffers around the Â·X the two full-batch legs share.
	out = append(out, confConfig{name: "interleaved", alg: SparsityAware1D, c: 1, interleaved: true})
	return out
}

const (
	confDataset  = "protein-sim"
	confScaleDiv = 64
	confEpochs   = 3
	confSeed     = 1
)

// runConformanceSchedule runs every engine on cl and records losses, trained
// weights, and this cluster's volume-ledger rows per config.
// The schedule is identical on every process and transport by construction.
func runConformanceSchedule(t *testing.T, cl *Cluster, ds *Dataset) []confRun {
	t.Helper()
	var out []confRun
	for _, cfg := range conformanceConfigs() {
		dg, err := cl.Distribute(ds, DistOpts{
			Algorithm:   cfg.alg,
			Replication: cfg.c,
			Partitioner: NewGVB(confSeed),
			Sampling:    &SamplingConfig{Fanout: 3, BatchSize: 8, Seed: confSeed},
		})
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		sess, err := dg.NewSession(ModelConfig{Seed: confSeed})
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		v0 := cl.world.Stats().Snapshot()
		var res *TrainResult
		if cfg.sampled {
			res, err = sess.RunSampled(context.Background(), confEpochs)
		} else {
			res, err = sess.Run(context.Background(), confEpochs)
		}
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if cfg.interleaved {
			for _, run := range []func(context.Context, int) (*TrainResult, error){sess.RunSampled, sess.Run} {
				leg, err := run(context.Background(), confEpochs-1)
				if err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				res.History = append(res.History, leg.History...)
				res.Model = leg.Model
			}
		}
		vol := cl.world.Stats().Snapshot().Sub(v0)
		if !cfg.sampled && !cfg.interleaved {
			checkSetupAccounting(t, cfg.name, cl, dg, sess, res)
		}
		run := confRun{
			Name: cfg.name,
			Sent: map[string]int64{},
			Recv: map[string]int64{},
		}
		for _, e := range res.History {
			run.Losses = append(run.Losses, fmt.Sprintf("%016x", math.Float64bits(e.Loss)))
		}
		blob, err := res.Model.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		run.Model = fmt.Sprintf("%x", sha256.Sum256(blob))
		for _, r := range cl.world.Hosted() {
			key := strconv.Itoa(r)
			run.Sent[key] = vol.BytesSent(r)
			run.Recv[key] = vol.BytesRecv(r)
		}
		out = append(out, run)
	}
	return out
}

// checkSetupAccounting holds a graph's first full-batch run to the plan, on
// whichever transport cl is (a TCP process vouches for its own rank's row):
// the set-up launch moved exactly what the plan predicts for one multiply at
// the feature width, the epochs exactly the epoch widths plus the
// all-reduces, and a second run reports the same epochs and no set-up.
func checkSetupAccounting(t *testing.T, name string, cl *Cluster, dg *DistGraph, sess *Session, first *TrainResult) {
	t.Helper()
	cfg := ModelConfig{}.withDefaults()
	widths := gcn.EpochMultiplyWidths(dg.input.X.Cols, cfg.Hidden, dg.ds.Classes, cfg.Layers, false)
	plan := dg.engine.Plan()
	hostedMax := func(per []int64) (m int64) {
		for _, r := range cl.world.Hosted() {
			m = max(m, per[r])
		}
		return m
	}
	if got, want := bytesOf(first.SetupMaxSentMB), hostedMax(plan.EpochSentBytes([]int{dg.input.X.Cols})); got != want {
		t.Errorf("%s: set-up sent %d B, plan predicts %d", name, got, want)
	}
	wantEpoch := hostedMax(plan.EpochSentBytes(widths)) + allReduceBytes(dg, ModelConfig{})
	if got := bytesOf(first.MaxSentMB); got != wantEpoch {
		t.Errorf("%s: first run sent %d B per epoch, plan predicts %d", name, got, wantEpoch)
	}
	second, err := sess.Run(context.Background(), confEpochs-1)
	if err != nil {
		t.Fatalf("%s: second run: %v", name, err)
	}
	if second.MaxSentMB != first.MaxSentMB || second.AvgSentMB != first.AvgSentMB || second.SetupMaxSentMB != 0 || second.SetupSeconds != 0 {
		t.Errorf("%s: second run (%v,%v) MB per epoch with set-up %v MB; first run (%v,%v)",
			name, second.MaxSentMB, second.AvgSentMB, second.SetupMaxSentMB, first.MaxSentMB, first.AvgSentMB)
	}
}

// TestTCPHelperProcess is the worker body behind the multi-process tests. It
// is a no-op unless the parent set the SAGNN_TCP_* environment; then it
// builds a TCP cluster hosting its assigned rank and runs the requested
// scenario, reporting through its JSON out-file and its own exit status.
func TestTCPHelperProcess(t *testing.T) {
	mode := os.Getenv(tcpEnvMode)
	if mode == "" {
		t.Skip("worker half of the TCP transport tests; driven by TestTCPConformance / TestTCPChaosKillRank")
	}
	rank, err := strconv.Atoi(os.Getenv(tcpEnvRank))
	if err != nil {
		t.Fatalf("bad %s: %v", tcpEnvRank, err)
	}
	peers := strings.Split(os.Getenv(tcpEnvPeers), ",")

	base := runtime.NumGoroutine()
	cl, err := NewTCPCluster(rank, peers)
	if err != nil {
		t.Fatalf("rank %d rendezvous: %v", rank, err)
	}

	switch mode {
	case "conformance":
		runs := runConformanceSchedule(t, cl, MustLoadDataset(confDataset, confSeed, confScaleDiv))
		blob, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(os.Getenv(tcpEnvOut), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	case "estimate":
		blob, err := json.Marshal(estimateVsLedger(t, cl))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(os.Getenv(tcpEnvOut), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	case "chaos":
		ds := MustLoadDataset(confDataset, confSeed, confScaleDiv)
		dg, err := cl.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(confSeed)})
		if err != nil {
			t.Fatal(err)
		}
		var once sync.Once
		sess, err := dg.NewSession(ModelConfig{Seed: confSeed}, WithEpochCallback(func(EpochResult) error {
			once.Do(func() {
				if err := os.WriteFile(os.Getenv(tcpEnvReady), []byte("ready\n"), 0o644); err != nil {
					t.Errorf("ready marker: %v", err)
				}
			})
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		// Far more epochs than the parent lets us live: the run ends when the
		// victim is killed and the abort propagates.
		_, runErr := sess.Run(context.Background(), 1<<30)
		var re *comm.RankError
		if !errors.As(runErr, &re) {
			t.Fatalf("rank %d: want *comm.RankError after peer kill, got %v", rank, runErr)
		}
		if !errors.Is(runErr, comm.ErrPeerDisconnected) {
			t.Fatalf("rank %d: want cause comm.ErrPeerDisconnected, got %v", rank, runErr)
		}
		if err := os.WriteFile(os.Getenv(tcpEnvOut),
			[]byte(fmt.Sprintf("rank-error from rank %d: %v\n", re.Rank, runErr)), 0o644); err != nil {
			t.Error(err)
		}
		cl.Close()
	case "between":
		betweenLaunches(t, cl, rank)
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	waitGoroutinesSettle(t, base+2, 10*time.Second)
}

// TestTCPConformance runs the full engine schedule as 4 real OS processes
// over localhost TCP and as the in-process simulated world, and requires
// bit-identical losses and trained weights plus an identical per-rank
// logical volume ledger.
func TestTCPConformance(t *testing.T) {
	if os.Getenv(tcpEnvMode) != "" {
		t.Skip("inside a worker process")
	}
	// Reference: the same schedule on the simulated transport.
	var ref []confRun
	blobs := runWorkers(t, "conformance", 4, func() {
		simCl, err := NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		ref = runConformanceSchedule(t, simCl, MustLoadDataset(confDataset, confSeed, confScaleDiv))
	})
	for i, blob := range blobs {
		var runs []confRun
		if err := json.Unmarshal(blob, &runs); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		if len(runs) != len(ref) {
			t.Fatalf("rank %d: %d runs, reference has %d", i, len(runs), len(ref))
		}
		for k, run := range runs {
			want := ref[k]
			if run.Name != want.Name {
				t.Fatalf("rank %d run %d: %s vs reference %s", i, k, run.Name, want.Name)
			}
			if fmt.Sprint(run.Losses) != fmt.Sprint(want.Losses) {
				t.Errorf("rank %d %s: losses %v, sim %v — transports diverged", i, run.Name, run.Losses, want.Losses)
			}
			if run.Model != want.Model {
				t.Errorf("rank %d %s: trained weights differ from sim", i, run.Name)
			}
			key := strconv.Itoa(i)
			if run.Sent[key] != want.Sent[key] || run.Recv[key] != want.Recv[key] {
				t.Errorf("rank %d %s: volume ledger sent=%d recv=%d, sim sent=%d recv=%d",
					i, run.Name, run.Sent[key], run.Recv[key], want.Sent[key], want.Recv[key])
			}
		}
	}
}

// ledgerRow is what Cluster.Estimate predicts the busiest rank sends — in one
// epoch's multiplies and in the set-up multiply — beside what a cluster's
// hosted ranks were measured sending, the all-reduces (which Estimate does
// not price) taken off the epoch.
type ledgerRow struct{ PredEpoch, PredSetup, Epoch, Setup int64 }

// estimateVsLedger prices and then trains reddit-sim, sparsity-aware over GVB,
// on cl: the benchmark's fullbatch-sa-sim configuration, at a quarter of its
// vertices to keep tier-1 short.
func estimateVsLedger(t *testing.T, cl *Cluster) ledgerRow {
	t.Helper()
	ds := MustLoadDataset(RedditSim, confSeed, 4)
	opts := DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(confSeed)}
	cands, err := cl.Estimate(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var row ledgerRow
	for _, c := range cands {
		if c.Algorithm == SparsityAware1D && c.Replication == 1 {
			row.PredEpoch, row.PredSetup = bytesOf(c.MaxSentMB), bytesOf(c.SetupMaxSentMB)
		}
	}
	dg, err := cl.Distribute(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: confSeed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	row.Epoch = bytesOf(res.MaxSentMB) - allReduceBytes(dg, ModelConfig{})
	row.Setup = bytesOf(res.SetupMaxSentMB)
	return row
}

// TestEstimatePredictsMeasuredBytesRedditSim: on reddit-sim at P = 4 the
// per-epoch bytes Cluster.Estimate predicts for the busiest rank — 64 columns
// an epoch, 4 multiplies at the hidden width — are the bytes the ledger
// measures, on the simulated transport and over 4 OS processes on loopback
// TCP (each vouches for its own rank; the busiest must hit the prediction),
// and so is the set-up multiply at the feature width, which the backward's
// association does not touch.
func TestEstimatePredictsMeasuredBytesRedditSim(t *testing.T) {
	if os.Getenv(tcpEnvMode) != "" {
		t.Skip("inside a worker process")
	}
	var sim ledgerRow
	blobs := runWorkers(t, "estimate", 4, func() {
		simCl, err := NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		sim = estimateVsLedger(t, simCl)
	})
	if sim.PredEpoch == 0 || sim.Epoch != sim.PredEpoch || sim.Setup != sim.PredSetup {
		t.Errorf("sim: measured %d B per epoch and %d B of set-up, Estimate predicts %d and %d", sim.Epoch, sim.Setup, sim.PredEpoch, sim.PredSetup)
	}
	// The widths an epoch multiplies at: the feature width is set-up only.
	if sim.PredEpoch*602 != sim.PredSetup*64 {
		t.Errorf("Estimate prices %d B per epoch, not 64 of the set-up's 602 columns (%d B)", sim.PredEpoch, sim.PredSetup)
	}
	var tcp ledgerRow
	for i, blob := range blobs {
		var row ledgerRow
		if err := json.Unmarshal(blob, &row); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		if row.PredEpoch != sim.PredEpoch || row.PredSetup != sim.PredSetup {
			t.Errorf("rank %d: Estimate predicts (%d, %d) B, sim (%d, %d)", i, row.PredEpoch, row.PredSetup, sim.PredEpoch, sim.PredSetup)
		}
		tcp.Epoch, tcp.Setup = max(tcp.Epoch, row.Epoch), max(tcp.Setup, row.Setup)
	}
	if tcp.Epoch != sim.PredEpoch || tcp.Setup != sim.PredSetup {
		t.Errorf("tcp: busiest rank measured %d B per epoch and %d B of set-up, Estimate predicts %d and %d", tcp.Epoch, tcp.Setup, sim.PredEpoch, sim.PredSetup)
	}
}

// betweenLaunches is the worker body of TestTCPChaosKillBetweenLaunches:
// one epoch, then a wait for the parent's go marker, by which time the
// victim has been killed. Every later launch — the next full-batch epoch,
// a sampled epoch, and a fresh graph's Â·X set-up — must fail at once with
// the same *comm.RankError, and WithRecovery must not retry it (its first
// backoff alone outlasts the parent's deadline).
func betweenLaunches(t *testing.T, cl *Cluster, rank int) {
	ds := MustLoadDataset(confDataset, confSeed, confScaleDiv)
	dg, err := cl.Distribute(ds, DistOpts{Algorithm: SparsityAware1D, Partitioner: NewGVB(confSeed),
		Sampling: &SamplingConfig{Fanout: 3, BatchSize: 8, Seed: confSeed}})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dg.NewSession(ModelConfig{Seed: confSeed}, WithRecovery(3, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.Distribute(ds, DistOpts{Algorithm: Oblivious1D})
	if err != nil {
		t.Fatal(err)
	}
	freshSess, err := fresh.NewSession(ModelConfig{Seed: confSeed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ready := os.Getenv(tcpEnvReady)
	if err := os.WriteFile(ready, []byte("ready\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFile(t, goMarker(ready), 2*time.Minute)
	// The victim was reaped before the marker appeared; give the readers a
	// moment to take the EOF, so the loss lands between launches.
	<-time.After(100 * time.Millisecond)

	var first *comm.RankError
	for _, l := range []struct {
		name string
		run  func(context.Context, int) (*TrainResult, error)
	}{
		{"full-batch epoch", sess.Run},
		{"sampled epoch", sess.RunSampled},
		{"set-up launch", freshSess.Run},
	} {
		name := l.name
		_, err := l.run(context.Background(), 1)
		var re *comm.RankError
		if !errors.As(err, &re) || !errors.Is(err, comm.ErrPeerDisconnected) {
			t.Fatalf("rank %d %s: want *comm.RankError with cause comm.ErrPeerDisconnected, got %v", rank, name, err)
		}
		if first == nil {
			first = re
		} else if re != first {
			t.Fatalf("rank %d %s: %v, not the first launch's %v", rank, name, re, first)
		}
	}
	if err := os.WriteFile(os.Getenv(tcpEnvOut),
		[]byte(fmt.Sprintf("rank-error from rank %d: %v\n", first.Rank, first)), 0o644); err != nil {
		t.Error(err)
	}
	cl.Close()
}

// TestTCPChaosKillRank SIGKILLs one rank mid-epoch and requires every
// survivor to exit cleanly — typed *comm.RankError observed, transport
// closed, goroutines settled — within a bounded deadline.
func TestTCPChaosKillRank(t *testing.T) {
	if os.Getenv(tcpEnvMode) != "" {
		t.Skip("inside a worker process")
	}
	killRank(t, "chaos", func(string) {})
}

// TestTCPChaosKillBetweenLaunches SIGKILLs one rank while every rank sits
// between two launches, then lets the survivors launch again: a lost peer
// is sticky, so each survivor's next launches fail at once with the typed
// error instead of starting an epoch against the dead rank and hanging.
func TestTCPChaosKillBetweenLaunches(t *testing.T) {
	if os.Getenv(tcpEnvMode) != "" {
		t.Skip("inside a worker process")
	}
	killRank(t, "between", func(dir string) {
		if err := os.WriteFile(goMarker(filepath.Join(dir, "ready")), []byte("go\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// goMarker is the file a between-launches worker waits for beside its ready
// marker.
func goMarker(ready string) string { return filepath.Join(filepath.Dir(ready), "go") }

// waitFile polls until path exists, failing after within.
func waitFile(t *testing.T, path string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s missing after %v", path, within)
		}
		<-time.After(20 * time.Millisecond)
	}
}

// killRank starts four workers in mode, SIGKILLs one once every rank is
// ready, calls afterKill with the markers' directory, and requires every
// survivor's helper — which asserts the typed error — to pass and report
// within 30 seconds.
func killRank(t *testing.T, mode string, afterKill func(dir string)) {
	t.Helper()
	const p, victim = 4, 2
	dir := t.TempDir()
	addrs := freeAddrs(t, p)

	readies := make([]string, p)
	outs := make([]string, p)
	cmds := make([]*exec.Cmd, p)
	for i := 0; i < p; i++ {
		readies[i] = filepath.Join(dir, fmt.Sprintf("ready%d", i))
		outs[i] = filepath.Join(dir, fmt.Sprintf("out%d", i))
		cmds[i] = workerCmd(t, mode, i, addrs, outs[i], readies[i])
		if err := cmds[i].Start(); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	// Every rank has completed at least one epoch.
	for _, ready := range readies {
		waitFile(t, ready, 2*time.Minute)
	}
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	waitCmd(cmds[victim], time.Minute) // reaps the SIGKILL exit
	afterKill(dir)

	// Bounded-deadline recovery: every survivor's helper test must pass —
	// which asserts the typed error — and exit within 30 seconds.
	for i, cmd := range cmds {
		if i == victim {
			continue
		}
		if err := waitCmd(cmd, 30*time.Second); err != nil {
			t.Errorf("survivor rank %d: %v", i, err)
		}
		blob, err := os.ReadFile(outs[i])
		if err != nil {
			t.Errorf("survivor rank %d wrote no report: %v", i, err)
			continue
		}
		if !strings.Contains(string(blob), "rank-error") {
			t.Errorf("survivor rank %d report: %s", i, blob)
		}
	}
}

// runWorkers runs p worker processes in the given helper mode over loopback
// TCP, calls meanwhile (the parent's simulated reference) while they run, and
// returns what each rank wrote to its out-file.
func runWorkers(t *testing.T, mode string, p int, meanwhile func()) [][]byte {
	t.Helper()
	dir := t.TempDir()
	addrs := freeAddrs(t, p)
	outs := make([]string, p)
	cmds := make([]*exec.Cmd, p)
	for i := range cmds {
		outs[i] = filepath.Join(dir, fmt.Sprintf("rank%d.json", i))
		cmds[i] = workerCmd(t, mode, i, addrs, outs[i], "")
		if err := cmds[i].Start(); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	meanwhile()
	blobs := make([][]byte, p)
	for i, cmd := range cmds {
		if err := waitCmd(cmd, 3*time.Minute); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		var err error
		if blobs[i], err = os.ReadFile(outs[i]); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return blobs
}

// workerCmd builds the re-exec command for one worker rank.
func workerCmd(t *testing.T, mode string, rank int, addrs []string, out, ready string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestTCPHelperProcess$")
	cmd.Env = append(os.Environ(),
		tcpEnvMode+"="+mode,
		tcpEnvRank+"="+strconv.Itoa(rank),
		tcpEnvPeers+"="+strings.Join(addrs, ","),
		tcpEnvOut+"="+out,
		tcpEnvReady+"="+ready,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd
}

// waitCmd waits for cmd with a deadline.
func waitCmd(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		cmd.Process.Kill()
		return fmt.Errorf("did not exit within %v", timeout)
	}
}

// freeAddrs reserves n distinct localhost ports by binding and immediately
// releasing them; the small reuse window is acceptable for tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// waitGoroutinesSettle polls until the process goroutine count returns to
// want or the deadline passes (then dumps all stacks).
func waitGoroutinesSettle(t *testing.T, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not settle: %d > %d\n%s", n, want, buf[:runtime.Stack(buf, true)])
		}
		<-time.After(20 * time.Millisecond)
	}
}
