// Command serve runs the online-inference HTTP server: it loads (or
// quickly trains) a model over a dataset preset and answers per-vertex
// class predictions from the model's full-batch answer table, built once
// per model. Models hot-swap through POST /admin/swap without dropping
// traffic.
//
// Server mode:
//
//	serve -dataset protein-sim -scalediv 16 -epochs 5 -addr :8080
//	curl -s localhost:8080/predict -d '{"vertices":[0,1,2]}'
//	curl -s localhost:8080/metrics
//	curl -s --data-binary @model.bin localhost:8080/admin/swap
//
// Artifact mode (produce a swappable model file and exit):
//
//	serve -dataset protein-sim -epochs 10 -seed 9 -save model.bin -train-only
//
// Sharded fleet mode (router fronting N in-process replicas):
//
//	serve -dataset protein-sim -replicas 3 -router -addr :8080
//	curl -s localhost:8080/metrics | jq .latency.p99_ms
//	curl -s -XPOST localhost:8080/admin/kill?replica=1
//
// Load-generator mode (drive a running server, report QPS and latency;
// -scenario shapes the traffic and can fire mid-run chaos):
//
//	serve -loadgen -target http://localhost:8080 -clients 64 -duration 10s
//	serve -loadgen -scenario zipf -zipfs 1.3 -duration 10s
//	serve -loadgen -scenario swap -swapmodel model.bin -duration 10s
//	serve -loadgen -scenario kill -kill-replica 1 -duration 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sagnn"
	"sagnn/internal/serve"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func main() {
	// Dataset / model bootstrap.
	dataset := flag.String("dataset", "protein-sim", "dataset preset")
	scaleDiv := flag.Int("scalediv", 16, "dataset scale divisor (1 = full size)")
	seed := flag.Int64("seed", 42, "dataset seed; also the model-init seed unless -mseed is set")
	modelSeed := flag.Int64("mseed", 0, "model weight-init seed (0 = use -seed); lets swap artifacts differ without changing the dataset")
	epochs := flag.Int("epochs", 5, "bootstrap training epochs (ignored with -model)")
	modelPath := flag.String("model", "", "serve this model/checkpoint file instead of training")
	savePath := flag.String("save", "", "write the served model to this file (swappable artifact)")
	trainOnly := flag.Bool("train-only", false, "exit after training and -save (no server)")

	// Serving knobs.
	addr := flag.String("addr", ":8080", "listen address")
	maxReq := flag.Int("maxreq", 1024, "max vertices per request")
	maxInFlight := flag.Int("maxinflight", 1024, "admission limit: in-flight predictions before shedding 503s (negative = unlimited)")

	// Sharded fleet mode.
	replicas := flag.Int("replicas", 1, "number of in-process serve replicas (with -router)")
	routerMode := flag.Bool("router", false, "front the replicas with the router (each request goes whole to one replica)")

	// Load-generator mode.
	loadgen := flag.Bool("loadgen", false, "run as a load generator against -target")
	target := flag.String("target", "http://127.0.0.1:8080", "server URL for -loadgen")
	clients := flag.Int("clients", 32, "concurrent loadgen clients")
	duration := flag.Duration("duration", 5*time.Second, "loadgen run length")
	perReq := flag.Int("k", 1, "vertices per loadgen request")
	scenario := flag.String("scenario", "uniform", "loadgen scenario: uniform, zipf, swap, kill")
	zipfS := flag.Float64("zipfs", 1.3, "Zipf popularity exponent for -scenario zipf/swap/kill (> 1)")
	swapModel := flag.String("swapmodel", "", "model artifact POSTed to /admin/swap at half-time (-scenario swap)")
	killReplica := flag.Int("kill-replica", 0, "replica index killed at half-time (-scenario kill)")
	flag.Parse()

	if *loadgen {
		err := runLoadgen(loadConfig{
			target:      *target,
			clients:     *clients,
			perReq:      *perReq,
			duration:    *duration,
			seed:        *seed,
			scenario:    *scenario,
			zipfS:       *zipfS,
			swapModel:   *swapModel,
			killReplica: *killReplica,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	ds, err := sagnn.LoadDataset(sagnn.Preset(*dataset), *seed, *scaleDiv)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset %s: %d vertices, %d edges, f=%d, %d classes\n",
		ds.Name, ds.G.NumVertices(), ds.G.NumEdges(), ds.FeatureDim(), ds.Classes)

	if *modelSeed == 0 {
		*modelSeed = *seed
	}
	model, err := bootstrapModel(ds, *modelPath, *epochs, *modelSeed)
	if err != nil {
		fatal(err)
	}
	if *savePath != "" {
		blob, err := model.MarshalBinary()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*savePath, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("model written to %s (%d bytes)\n", *savePath, len(blob))
	}
	if *trainOnly {
		return
	}

	scfg := serve.Config{MaxRequestVertices: *maxReq, MaxInFlight: *maxInFlight}

	if *routerMode || *replicas > 1 {
		if *replicas < 1 {
			fatal(fmt.Errorf("-replicas %d < 1", *replicas))
		}
		if err := runFleet(ds, model, scfg, *replicas, *addr); err != nil {
			fatal(err)
		}
		return
	}

	srv, err := serve.New(ds, model, scfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving on %s (maxreq %d, maxinflight %d)\n", *addr, *maxReq, *maxInFlight)
	err = serveUntilSignal(*addr, srv.Handler(), "server")
	srv.Close()
	if err != nil {
		fatal(err)
	}
	snap := srv.Metrics()
	fmt.Printf("served %d requests (%d failed, %d shed), %.1f qps, p99 %.3fms\n",
		snap.Requests, snap.Failed, snap.Admission.Shed, snap.QPS, snap.Latency.P99Ms)
}

// serveUntilSignal serves h on addr until SIGINT or SIGTERM, then stops
// accepting and drains in-flight requests for up to 5 s. It returns the
// listener's error if serving fails first; name labels the shutdown line.
func serveUntilSignal(addr string, h http.Handler, name string) error {
	httpSrv := &http.Server{Addr: addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Printf("\nshutting down %s...\n", name)
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
	}
	return nil
}

// bootstrapModel loads a serialized model/checkpoint, or trains one with
// the serial reference trainer.
func bootstrapModel(ds *sagnn.Dataset, path string, epochs int, seed int64) (*sagnn.Model, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		model, epoch, err := sagnn.LoadServableModel(data)
		if err != nil {
			return nil, err
		}
		if err := model.CompatibleWith(ds); err != nil {
			return nil, err
		}
		fmt.Printf("loaded model from %s (checkpoint epoch %d)\n", path, epoch)
		return model, nil
	}
	fmt.Printf("training bootstrap model: %d serial epochs...\n", epochs)
	res, err := sagnn.RunSerial(ds, epochs, sagnn.ModelConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	accs, err := res.Model.Accuracy(ds, ds.Val, ds.Test)
	if err != nil {
		return nil, err
	}
	last := res.History[len(res.History)-1]
	fmt.Printf("bootstrap model: loss %.4f, val acc %.3f, test acc %.3f\n",
		last.Loss, accs[0], accs[1])
	return res.Model, nil
}
