package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// subBits sets the histogram's resolution: 2^subBits buckets per power
// of two, so a reported value is within 1/2^(subBits+1) of the samples
// it stands for.
const subBits = 5

// histogram counts non-negative int64 samples (nanoseconds) in
// log-linear buckets. Adds are atomic, so the nodes of a traced run share
// one histogram per quantity however many there are.
type histogram struct {
	counts [64 << subBits]atomic.Int64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketValue is the middle of bucket b's range.
func bucketValue(b int) int64 {
	if b < 1<<subBits {
		return int64(b)
	}
	shift := b>>subBits - 1
	low := int64(1<<subBits+b&(1<<subBits-1)) << shift
	return low + (int64(1)<<shift)/2
}

func (h *histogram) add(v int64) { h.counts[bucketOf(v)].Add(1) }

func (h *histogram) count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// percentile is the nearest-rank p-quantile, within the bucket
// resolution, and whether at least minBeyond samples lie beyond it.
func (h *histogram) percentile(p float64) (int64, bool) {
	n := h.count()
	if n == 0 {
		return 0, false
	}
	rank := int64(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			return bucketValue(i), n-1-rank >= minBeyond
		}
	}
	return 0, false // unreachable: seen reaches n > rank
}
