package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sagnn"
	"sagnn/internal/partition"
	"sagnn/internal/router"
	"sagnn/internal/serve"
)

// tier is a serving stack: replicas, the router when the workload has one,
// and the loopback HTTP front the clients talk to.
type tier struct {
	servers []*serve.Server
	router  *router.Router
	front   *http.Server
	served  chan struct{} // closed when front.Serve returns
	url     string
	client  *http.Client
}

// startTier builds spec's replicas over the model (each replica gets its own
// clone: a Model serializes inference on an internal workspace), fronts them
// with a partition-aware router when spec says so, and listens on a free
// loopback port.
func startTier(spec *serveSpec, ds *sagnn.Dataset, model *sagnn.Model) (*tier, error) {
	t := &tier{served: make(chan struct{})}
	handlers := make([]http.Handler, spec.replicas)
	for i := range handlers {
		s, err := serve.New(ds, model.Clone(), serve.Config{CacheSize: spec.cacheSize})
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, s)
		handlers[i] = s.Handler()
	}
	handler := handlers[0]
	if spec.routed {
		part := partition.GVB{Seed: gvbSeed}.Partition(ds.G, processes)
		rt, err := router.New(handlers, router.Config{Policy: router.PolicyPartition, PartOf: part.PartOf})
		if err != nil {
			t.close()
			return nil, err
		}
		t.router = rt
		handler = rt.Handler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.url = "http://" + ln.Addr().String()
	t.front = &http.Server{Handler: handler}
	go func() {
		defer close(t.served)
		_ = t.front.Serve(ln) // always returns ErrServerClosed after close()
	}()
	t.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return t, nil
}

func (t *tier) close() {
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	if t.front != nil {
		t.front.Close()
		<-t.served
	}
	if t.router != nil {
		t.router.Close()
	}
	for _, s := range t.servers {
		s.Close()
	}
}

// requests is a pre-generated request list with its encoded bodies and the
// full-batch prediction table every response is checked against.
type requests struct {
	vertices [][]int
	bodies   [][]byte
	want     []int // full-batch Model.Predict class of every vertex
}

func newRequests(seed int64, ds *sagnn.Dataset, zipf bool) (*requests, error) {
	verts, err := requestList(seed, requestListN, perRequest, ds.G.NumVertices(), zipf)
	if err != nil {
		return nil, err
	}
	rq := &requests{vertices: verts, bodies: make([][]byte, len(verts))}
	for i, v := range verts {
		if rq.bodies[i], err = json.Marshal(serve.PredictRequest{Vertices: v}); err != nil {
			return nil, err
		}
	}
	return rq, nil
}

// sample is one timed operation: a request (its position in the claim order,
// when it was sent and when its reply was fully received) or an epoch (its
// index and the two epoch callbacks that bracket it).
type sample struct {
	seq        int
	start, end time.Time
}

// loadResult is what one closed-loop drive observed.
type loadResult struct {
	samples    []sample // correct 200 responses, in completion order
	attempted  int
	failed     int // non-200, transport error, or classes ≠ full-batch Predict
	start, end time.Time
}

// drive runs the closed loop: nClients goroutines each send the next
// unclaimed request of the list (cycling), wait for the whole reply, check
// it, and repeat — until limit requests have been claimed (limit > 0) or d
// has elapsed. Latency is send → body drained, stamped before the reply is
// decoded. observe, when non-nil, sees every good sample from the client
// goroutine that took it (traced runs record spans there).
func drive(client *http.Client, url string, rq *requests, nClients, limit int, d time.Duration, observe func(sample)) loadResult {
	var next atomic.Int64
	deadline := time.Now().Add(d)
	per := make([]loadResult, nClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(out *loadResult) {
			defer wg.Done()
			for {
				seq := int(next.Add(1) - 1)
				if (limit > 0 && seq >= limit) || (limit <= 0 && !time.Now().Before(deadline)) {
					return
				}
				out.attempted++
				s, err := rq.send(client, url, seq%len(rq.bodies))
				if err != nil {
					out.failed++
					logf("request %d: %v", seq, err)
					continue
				}
				s.seq = seq
				out.samples = append(out.samples, s)
				if observe != nil {
					observe(s)
				}
			}
		}(&per[c])
	}
	wg.Wait()
	total := loadResult{start: start, end: time.Now()}
	for _, p := range per {
		total.samples = append(total.samples, p.samples...)
		total.attempted += p.attempted
		total.failed += p.failed
	}
	sort.Slice(total.samples, func(a, b int) bool { return total.samples[a].end.Before(total.samples[b].end) })
	return total
}

// send posts request i and checks the reply against the full-batch table.
func (rq *requests) send(client *http.Client, url string, i int) (sample, error) {
	s := sample{start: time.Now()}
	resp, err := client.Post(url+"/predict", "application/json", bytes.NewReader(rq.bodies[i]))
	if err != nil {
		return s, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var reply serve.PredictResponse
	if err := json.Unmarshal(body, &reply); err != nil {
		return s, err
	}
	verts := rq.vertices[i]
	if len(reply.Classes) != len(verts) {
		return s, fmt.Errorf("%d classes for %d vertices", len(reply.Classes), len(verts))
	}
	for j, v := range verts {
		if reply.Classes[j] != rq.want[v] {
			return s, fmt.Errorf("vertex %d: served class %d, full-batch Predict says %d", v, reply.Classes[j], rq.want[v])
		}
	}
	return s, nil
}

// servingRun is one set-up serving workload, ready to be timed.
type servingRun struct {
	setupS    []float64
	rig       *rig // the bootstrap trainer, already closed
	bootstrap []*sagnn.TrainResult
	tier      *tier
	rq        *requests
}

// setUpServing bootstraps a model by distributed training, starts the
// serving tier and sends the warm-up requests — setupRepeats times over,
// keeping the last.
func setUpServing(spec workloadSpec, ds *sagnn.Dataset, seed int64, meter *stealMeter) (*servingRun, error) {
	sr := &servingRun{}
	var err error
	if sr.rq, err = newRequests(seed, ds, spec.serve.zipf); err != nil {
		return nil, err
	}
	for i := 0; i < setupRepeats; i++ {
		if sr.tier != nil {
			sr.tier.close()
			sr.tier, sr.rig, sr.bootstrap = nil, nil, nil
			releaseDiscarded()
		}
		start := time.Now()
		rg, err := buildRig(spec, ds)
		if err != nil {
			return nil, err
		}
		sr.rig = rg
		sr.bootstrap, err = rg.run(spec.warm)
		rg.close()
		if err != nil {
			return nil, err
		}
		model := sr.bootstrap[0].Model
		if sr.tier, err = startTier(spec.serve, ds, model); err != nil {
			return nil, err
		}
		elapsed := meter.net(start, time.Now())
		// The reference table belongs to the harness, not to the system's
		// set-up: the clock stops while it is computed.
		if sr.rq.want, err = model.Predict(ds, nil); err != nil {
			sr.tier.close()
			return nil, err
		}
		start = time.Now()
		if warm := drive(sr.tier.client, sr.tier.url, sr.rq, clients, spec.serve.warm, 0, nil); warm.failed > 0 {
			sr.tier.close()
			return nil, fmt.Errorf("%s: %d of %d warm-up requests failed", spec.name, warm.failed, warm.attempted)
		}
		sr.setupS = append(sr.setupS, elapsed+meter.net(start, time.Now()))
	}
	releaseDiscarded()
	return sr, nil
}
