package main

import "math/bits"

// latHist is a log-linear histogram of latencies in nanoseconds: values
// below 256 are exact, and each further power of two is split into 256
// linear sub-buckets, so a quantile interpolated inside its bucket is
// within 0.4% of the exact order statistic. (internal/stats.Histogram
// reports bucket midpoints at 1.6% resolution, so two runs differing by
// less than a bucket would report the very same latency.) It has a fixed
// size — the load generator allocates every histogram before measuring,
// so the heap it reports is the system's — and is not safe for
// concurrent use.
type latHist struct {
	counts [histBuckets]uint32
	total  uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	// histMaxExp covers latencies up to 2^33 ns (8.6 s); longer ones clamp.
	histMaxExp  = 25
	histBuckets = histSub + histMaxExp*histSub
)

// histIndex maps a value to its bucket.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - histSubBits
	if e >= histMaxExp {
		return histBuckets - 1
	}
	return histSub + e*histSub + int(v>>e-histSub)
}

func (h *latHist) record(ns int64) {
	h.counts[histIndex(uint64(max(ns, 0)))]++
	h.total++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// bucketBounds is the lower bound and width of bucket i.
func bucketBounds(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	e := (i - histSub) / histSub
	m := uint64(histSub + (i-histSub)%histSub)
	return m << e, 1 << e
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// within its bucket; an empty histogram yields 0.
func (h *latHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return float64(lo) + float64(width)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

// mean is the mean of the bucket midpoints.
func (h *latHist) mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.counts {
		if c != 0 {
			lo, width := bucketBounds(i)
			sum += float64(c) * (float64(lo) + float64(width)/2)
		}
	}
	return sum / float64(h.total)
}
