package main

import (
	"context"
	"fmt"
	"net/http"

	"sagnn"
	"sagnn/internal/partition"
	"sagnn/internal/router"
	"sagnn/internal/serve"
)

// runFleet boots the sharded serving tier: k in-process serve.Server
// replicas over the same dataset and model, fronted by the router. The
// dataset is GVB-partitioned into k parts, which the partition policy maps
// to replicas; /admin/kill closes the chosen replica's server to exercise
// failure handling.
func runFleet(ds *sagnn.Dataset, model *sagnn.Model, scfg serve.Config, k int, policy router.Policy, seed int64, addr string) error {
	fmt.Printf("partitioning %s into %d parts (gvb)...\n", ds.Name, k)
	part := partition.GVB{Seed: seed}.Partition(ds.G, k)
	fmt.Printf("partition sizes: %v\n", part.Sizes())

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
		PartOf: part.PartOf,
		Policy: policy,
		Kill:   func(i int) error { servers[i].Close(); return nil },
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Printf("router serving on %s fronting %d replicas (%s policy)\n", addr, k, policy)
	if err := serveUntilSignal(addr, rt.Handler(), "fleet"); err != nil {
		return err
	}
	// Snapshot before closing: the aggregation probes replica /metrics.
	snap := rt.Metrics(context.Background())
	fmt.Printf("fleet served %d requests (%d failed, %d shed), %.1f qps, p99 %.2fms\n",
		snap.Requests, snap.Failed, snap.Shed, snap.QPS, snap.Latency.P99Ms)
	fmt.Printf("routing: %d splits, %d reroutes, %d generation retries, %d swaps\n",
		snap.Splits, snap.Reroutes, snap.GenRetries, snap.Swaps)
	return nil
}
