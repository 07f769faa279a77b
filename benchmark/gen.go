package main

import (
	"fmt"
	"math/rand"
	"net"
)

// requestList pre-generates n prediction requests of k distinct vertices
// each over [0, vertices), deterministic in seed: Zipf(zipfS) popularity
// (vertex id = popularity rank) or uniform.
func requestList(seed int64, n, k, vertices int, zipf bool) ([][]int, error) {
	if k > vertices {
		return nil, fmt.Errorf("request of %d distinct vertices from a graph of %d", k, vertices)
	}
	rng := rand.New(rand.NewSource(seed))
	draw := func() int { return rng.Intn(vertices) }
	if zipf {
		z := rand.NewZipf(rng, zipfS, 1, uint64(vertices-1))
		draw = func() int { return int(z.Uint64()) }
	}
	reqs := make([][]int, n)
	for i := range reqs {
		req := make([]int, 0, k)
	next:
		for len(req) < k {
			v := draw()
			for _, u := range req {
				if u == v {
					continue next
				}
			}
			req = append(req, v)
		}
		reqs[i] = req
	}
	return reqs, nil
}

// freeAddrs reserves n distinct loopback TCP addresses by binding port 0
// and releasing the listeners; the TCP worlds re-bind them a moment later
// (their rendezvous retries dials, so start order does not matter).
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}
