package trace

import (
	"math/bits"

	"ncache/internal/sim"
)

// Streaming latency histogram with logarithmic buckets: exact below
// histBase nanoseconds, then histBase sub-buckets per octave, giving a
// guaranteed relative quantile error of at most 1/histBase (< 1.6%) at
// constant memory. Recording is exact integer arithmetic, so histograms are
// deterministic.

const (
	histSubBits = 6
	histBase    = 1 << histSubBits // 64 sub-buckets per octave
	// histBuckets covers the full non-negative int64 range: histBase
	// exact buckets plus histBase per remaining octave.
	histBuckets = histBase + (64-histSubBits)*histBase
)

// Histogram is a fixed-size log-bucketed latency distribution. The zero
// value is NOT usable; construct with NewHistogram.
type Histogram struct {
	counts []uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets), min: -1}
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histBase {
		return int(u)
	}
	top := bits.Len64(u) // >= histSubBits+1
	octave := top - histSubBits - 1
	shift := uint(octave)
	return histBase + octave*histBase + int((u>>shift)-histBase)
}

// bucketMid returns the representative (midpoint) value of bucket i.
func bucketMid(i int) int64 {
	if i < histBase {
		return int64(i)
	}
	octave := (i - histBase) / histBase
	sub := (i - histBase) % histBase
	lo := int64(histBase+sub) << uint(octave)
	width := int64(1) << uint(octave)
	return lo + width/2
}

// Record adds one sample, a duration and so never negative.
func (h *Histogram) Record(d sim.Duration) {
	v := int64(d)
	h.counts[bucketIndex(v)]++
	h.n++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact arithmetic mean of recorded samples.
func (h *Histogram) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(h.n))
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() sim.Duration { return sim.Duration(h.max) }

// Quantile returns the q-quantile (0 < q <= 1) with relative error bounded
// by the bucket resolution, clamped to the observed [min, max].
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return sim.Duration(v)
		}
	}
	return sim.Duration(h.max)
}
