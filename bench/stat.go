package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// order statistics, so two runs rarely print the same digits.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timing is how every timed quantity is reported: the median, the highest
// percentile that still has at least ten samples beyond it, and the count.
type timing struct {
	N       int
	P50     float64
	TailQ   float64 // the percentile reported in Tail (0.9, 0.99, 0.999, ...); 0 without enough samples
	Tail    float64
	sortedV []float64
}

// tailQuantile picks the highest of p90/p99/p999/p9999 with >= 10 samples
// beyond it.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

func newTiming(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s), sortedV: s, P50: quantile(s, 0.5), TailQ: tailQuantile(len(s))}
	if t.TailQ > 0 {
		t.Tail = quantile(s, t.TailQ)
	}
	return t
}

// at returns the q-quantile, or 0 when fewer than minBeyond samples lie
// beyond it.
func (t timing) at(q float64, minBeyond int) float64 {
	if float64(t.N)*(1-q) < float64(minBeyond) {
		return 0
	}
	return quantile(t.sortedV, q)
}

// cpuNow returns the process's user+system CPU time and peak RSS in MiB.
func cpuNow() (cpu time.Duration, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssNow returns the process's current resident set in MiB (0 if /proc is
// not there to ask).
func rssNow() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// rtSample reads the runtime's allocation and GC-CPU counters.
type rtSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64 // seconds
}

var rtNames = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func rtNow() rtSample {
	s := append([]metrics.Sample(nil), rtNames...)
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.mallocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.bytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		out.allCPU = s[3].Value.Float64()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
