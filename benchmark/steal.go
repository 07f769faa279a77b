package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference host is a small VM on a shared machine. For minutes at a
// time the hypervisor gives its CPUs to someone else — /proc/stat showed 68 %
// steal while a run that takes 110 ms per epoch took 550 — and no amount of
// repetition inside one run averages that away. So every timing is reported
// net of steal: an interval of wall-clock W during which a share s of the
// VM's CPU time was stolen counts as W·(1−s). Busy work is conserved and
// timer waits are not inflated by steal, so this is what the interval would
// have taken had the VM kept its CPUs. On a host that reports no steal the
// correction is exactly 1.

// stealMeter samples the cumulative CPU counters of /proc/stat so that the
// steal share of any interval of a run can be read back afterwards.
type stealMeter struct {
	read func() (steal, total float64, ok bool) // readProcStat, or a test's fake
	stop chan struct{}
	done chan struct{}

	mu           sync.Mutex
	at           []time.Time
	steal, total []float64 // cumulative jiffies, summed over CPUs
}

const stealSampleEvery = 50 * time.Millisecond

func startStealMeter() *stealMeter {
	m := &stealMeter{read: readProcStat, stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(stealSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				m.sample()
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

func (m *stealMeter) close() {
	close(m.stop)
	<-m.done
}

// readProcStat reads the aggregate "cpu" line of /proc/stat — user nice
// system idle iowait irq softirq steal, cumulative jiffies over all CPUs —
// and reports ok = false where there is none to read.
func readProcStat() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func (m *stealMeter) sample() {
	steal, total, ok := m.read()
	if !ok {
		return
	}
	m.mu.Lock()
	m.at = append(m.at, time.Now())
	m.steal = append(m.steal, steal)
	m.total = append(m.total, total)
	m.mu.Unlock()
}

// share returns the steal share of the VM's CPU time over [from, to], read
// from the samples that bracket the interval; 0 when they cannot tell.
func (m *stealMeter) share(from, to time.Time) float64 {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	// Last sample at or before from, first sample at or after to.
	lo := sort.Search(len(m.at), func(i int) bool { return m.at[i].After(from) }) - 1
	hi := sort.Search(len(m.at), func(i int) bool { return !m.at[i].Before(to) })
	if lo < 0 {
		lo = 0
	}
	if hi >= len(m.at) {
		hi = len(m.at) - 1
	}
	if hi <= lo || m.total[hi] <= m.total[lo] {
		return 0
	}
	return (m.steal[hi] - m.steal[lo]) / (m.total[hi] - m.total[lo])
}

// net returns the wall-clock of [from, to] in seconds, net of steal.
func (m *stealMeter) net(from, to time.Time) float64 {
	return to.Sub(from).Seconds() * (1 - m.share(from, to))
}

// netMedianMs is medianMs with the block's steal share taken out: the
// statistic op_ms is built from.
func (m *stealMeter) netMedianMs(ops []sample) float64 {
	if len(ops) == 0 {
		return 0
	}
	return medianMs(ops) * (1 - m.share(ops[0].start, ops[len(ops)-1].end))
}
