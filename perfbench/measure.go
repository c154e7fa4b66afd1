package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapSampler samples the live heap — the bytes the most recent GC found
// reachable — every 10ms on its own goroutine between start and stop.
// Live bytes, unlike allocated bytes, do not depend on where in its cycle
// the collector happened to be when sampled. The peak it reports is the
// 90th percentile of the samples: a one-shot Rename's live heap at a GC
// depends on how far the call had got, so the largest samples come from
// the few collections that caught a call at its fullest, and which of
// them did varies from run to run; the 90th percentile spans many.
type heapSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64 // owned by the sampling goroutine until done
}

const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in megabytes (10^6 bytes).
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	slices.Sort(h.samples)
	return quantile(h.samples, 0.90) / 1e6
}

// goStats is one reading of the Go runtime's cumulative counters; two
// readings bracket a window.
type goStats struct {
	sched, gcPause *metrics.Float64Histogram
	gcCycles       uint64
	allocBytes     uint64
	allocObjects   uint64
	at             time.Time
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(s)
	return goStats{
		sched:        s[0].Value.Float64Histogram(),
		gcPause:      s[1].Value.Float64Histogram(),
		gcCycles:     s[2].Value.Uint64(),
		allocBytes:   s[3].Value.Uint64(),
		allocObjects: s[4].Value.Uint64() + s[5].Value.Uint64(),
		at:           time.Now(),
	}
}

// histQuantile is the q-quantile of the samples recorded between two
// readings of a runtime histogram, interpolated linearly inside the
// bucket it falls in. An empty window yields 0.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(after.Counts))
	for i, c := range after.Counts {
		counts[i] = c - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := after.Buckets[i], after.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return after.Buckets[len(after.Buckets)-1]
}

// quantile is the exact q-quantile of sorted values (nearest rank).
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median of unsorted values.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// geomean of positive values.
func geomean(xs ...float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// div is a/b, or 0 when b is 0: per-operation ratios of an idle layer.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
