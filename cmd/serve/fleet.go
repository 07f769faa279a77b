package main

import (
	"context"
	"fmt"
	"net/http"

	"sagnn"
	"sagnn/internal/router"
	"sagnn/internal/serve"
)

// runFleet boots the sharded serving tier: k in-process serve.Server
// replicas over the same dataset and model, fronted by the router, which
// forwards each request whole to one replica; /admin/kill closes the
// chosen replica's server to exercise failure handling.
func runFleet(ds *sagnn.Dataset, model *sagnn.Model, scfg serve.Config, k int, addr string) error {
	servers := make([]*serve.Server, k)
	handlers := make([]http.Handler, k)
	for i := range servers {
		srv, err := serve.New(ds, model.Clone(), scfg)
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		servers[i] = srv
		handlers[i] = srv.Handler()
	}
	defer func() {
		for _, srv := range servers {
			srv.Close() // idempotent; killed replicas are already closed
		}
	}()

	rt, err := router.New(handlers, router.Config{
		Kill: func(i int) error { servers[i].Close(); return nil },
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Printf("router serving on %s fronting %d replicas\n", addr, k)
	if err := serveUntilSignal(addr, rt.Handler(), "fleet"); err != nil {
		return err
	}
	// Snapshot before closing: the aggregation probes replica /metrics.
	snap := rt.Metrics(context.Background())
	fmt.Printf("fleet served %d requests (%d failed, %d shed), %.1f qps, p99 %.2fms\n",
		snap.Requests, snap.Failed, snap.Shed, snap.QPS, snap.Latency.P99Ms)
	fmt.Printf("routing: %d reroutes, %d swaps\n", snap.Reroutes, snap.Swaps)
	return nil
}
