package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"adaptive/internal/sim"
	"adaptive/internal/workload"
)

// TestConnectionFootprint bounds what one connection costs in resident heap:
// the E10 class mix at N=1000, live bytes after a full GC per session end
// (2 per connection) — generators, recorders, timers, the kernels and the
// packets in flight or pinned by FEC groups included.
//
//	(a) dialed, handshakes done, generators not yet started
//	(b) after one virtual second of traffic
//
// The soak's own eight shards are built and run one after the other here, not
// 1000 sessions on one kernel: one E10 link carries 125 sessions, and with
// 1000 on it the 35 MB of payload queued behind the link swamps the state this
// test is about.
//
// Measured by this test (go1.24, amd64) when the bars were set, and at the
// parent commit, where every recorder held a dense 240-bucket histogram and a
// reservoir for its one establishment-latency sample, every generator owned
// its staging buffer, and every end a 16-slot send queue and 16-entry free
// lists:
//
//	      this PR    parent
//	(a)   1.96 KB   4.04 KB
//	(b)   7.30 KB  13.98 KB
//
// The bars are 1.25 x the left column. On failure the per-site table of the
// bytes still in use names the allocator that grew.
func TestConnectionFootprint(t *testing.T) {
	if raceEnabled() {
		t.Skip("heap sizes under -race measure the detector's shadow state")
	}
	const (
		sessions = 1000
		idleBar  = 2.45 * 1024 // bytes per session end, (a)
		busyBar  = 9.13 * 1024 // (b)
	)
	// Profile every allocation from here on, so the failure table is exact
	// for what this test allocated.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	base, baseSites := liveHeap()
	var kernels []*sim.Kernel
	var keep []any
	var meters []*workload.Meter
	for shard := 0; shard < e10Shards; shard++ {
		k := sim.NewKernel(sim.DeriveSeed(e10Seed, shard))
		sh, meter := buildE10Shard(shard, k, sessions/e10Shards, nil, nil)
		kernels, keep, meters = append(kernels, k), append(keep, sh), append(meters, meter)
	}
	perEnd := func(until time.Duration) float64 {
		for _, k := range kernels {
			k.RunUntil(until)
		}
		now, _ := liveHeap()
		return float64(int64(now)-int64(base)) / (2 * sessions)
	}

	// Generators start at 10ms or later; a handshake is two 0.5ms hops.
	idle := perEnd(9 * time.Millisecond)
	busy := perEnd(e10End)
	for _, m := range meters {
		if m.Messages == 0 {
			t.Fatal("a shard delivered nothing — measurement exercised nothing")
		}
	}
	t.Logf("live heap per session end: %.2f KB established and idle, %.2f KB after 1s of traffic", idle/1024, busy/1024)
	if idle > idleBar || busy > busyBar {
		_, sites := liveHeap()
		t.Errorf("live heap per session end: idle %.2f KB (bar %.2f), after traffic %.2f KB (bar %.2f)\n%s",
			idle/1024, idleBar/1024, busy/1024, busyBar/1024, topSites(sites, baseSites, 10))
	}
	runtime.KeepAlive(keep)
}

// liveHeap returns the bytes live after a full collection and, per allocating
// function, the profiled bytes still in use.
func liveHeap() (uint64, map[string]int64) {
	runtime.GC()
	runtime.GC() // the memory profile trails the heap by up to two cycles
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n, _ := runtime.MemProfile(nil, false)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, false)
	sites := make(map[string]int64)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			inRuntime := strings.HasPrefix(f.Function, "runtime.") || strings.HasPrefix(f.Function, "internal/runtime/")
			if !inRuntime || !more {
				sites[f.Function] += r.InUseBytes()
				break
			}
		}
	}
	return ms.HeapAlloc, sites
}

// topSites renders the n sites holding the most bytes beyond what they held
// at base.
func topSites(sites, base map[string]int64, n int) string {
	type site struct {
		name  string
		bytes int64
	}
	var all []site
	for name, b := range sites {
		if d := b - base[name]; d > 0 {
			all = append(all, site{name, d})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].bytes > all[j].bytes })
	var b strings.Builder
	b.WriteString("bytes in use by allocating function:\n")
	for _, s := range all[:min(n, len(all))] {
		fmt.Fprintf(&b, "%10.1f KB  %s\n", float64(s.bytes)/1024, s.name)
	}
	return b.String()
}
