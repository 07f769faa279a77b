package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostFacts is recorded with every result file: numbers measured on one
// host mean nothing on another.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LLCBytes:   llcBytes(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// llcBytes returns the size of cpu0's largest cache level, 0 if unknown.
func llcBytes() int64 {
	var llc int64
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > llc {
			llc = n * mult
		}
	}
	return llc
}

// peakRSSMB returns VmHWM of this process in MB (1e6 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				kb, err := strconv.ParseFloat(fields[0], 64)
				return kb * 1024 / 1e6, err
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// acrossCPUs runs fn once per GOMAXPROCS worker and returns the wall-clock
// of the slowest.
func acrossCPUs(fn func(worker, workers int)) time.Duration {
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, workers)
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// peakGflops is the multiply-add rate Go code can reach on this host: eight
// independent scalar accumulator chains per worker (the compiler emits no
// SIMD), all workers at once, best of three passes of iters iterations. It
// is the roofline the dense rungs are read against, not the silicon's vector
// peak.
func peakGflops(iters int) float64 {
	workers := runtime.GOMAXPROCS(0)
	sinks := make([]float64, workers)
	best := time.Duration(0)
	for pass := 0; pass < 3; pass++ {
		d := acrossCPUs(func(w, _ int) {
			a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
			const m, c = 0.999999, 1e-9
			for i := 0; i < iters; i++ {
				a0 = a0*m + c
				a1 = a1*m + c
				a2 = a2*m + c
				a3 = a3*m + c
				a4 = a4*m + c
				a5 = a5*m + c
				a6 = a6*m + c
				a7 = a7*m + c
			}
			sinks[w] = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
		})
		if best == 0 || d < best {
			best = d
		}
	}
	runtime.KeepAlive(sinks)
	return float64(workers) * float64(iters) * 16 / best.Seconds() / 1e9
}

// streamGBPerS is the triad a[i] = b[i] + s·c[i] over three arrays of elems
// float64 each, all workers at once, counted as 24 bytes per element: the
// roofline for the memory-bound SpMM rungs. The best of three passes after
// a page-touching pass.
func streamGBPerS(elems int) float64 {
	a, b, c := make([]float64, elems), make([]float64, elems), make([]float64, elems)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(0)
	for pass := 0; pass < 4; pass++ {
		d := acrossCPUs(func(w, workers int) {
			lo, hi := w*elems/workers, (w+1)*elems/workers
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
		if pass > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	runtime.KeepAlive(a)
	return float64(elems) * 24 / best.Seconds() / 1e9
}
