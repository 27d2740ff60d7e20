package trace

import (
	"math/rand"
	"sort"
	"testing"

	"ncache/internal/sim"
)

// exactQuantile computes the q-quantile by sorting (nearest-rank method,
// the same convention Histogram.Quantile uses).
func exactQuantile(samples []int64, q float64) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q * float64(len(s)))
	if float64(rank) < q*float64(len(s)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// TestQuantileAccuracyBounds checks the log-bucketing error bound: every
// reported quantile is within 1/64 relative error of the exact
// sorted-sample quantile, across several sample distributions.
func TestQuantileAccuracyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() int64{
		"uniform":  func() int64 { return rng.Int63n(10_000_000) },
		"exp-tail": func() int64 { return int64(1000 * (1 + rng.ExpFloat64()*5000)) },
		"bimodal": func() int64 {
			if rng.Intn(2) == 0 {
				return 50_000 + rng.Int63n(1000)
			}
			return 5_000_000 + rng.Int63n(100_000)
		},
		"tiny":      func() int64 { return rng.Int63n(64) }, // exact buckets
		"wide-span": func() int64 { return int64(1) << uint(rng.Intn(50)) },
	}
	quantiles := []float64{0.5, 0.9, 0.99, 0.999}
	for name, gen := range distributions {
		h := NewHistogram()
		samples := make([]int64, 20000)
		for i := range samples {
			samples[i] = gen()
			h.Record(sim.Duration(samples[i]))
		}
		for _, q := range quantiles {
			got := int64(h.Quantile(q))
			want := exactQuantile(samples, q)
			// Relative bound 1/64 plus 1 ns of integer slack.
			bound := want/64 + 1
			if got < want-bound || got > want+bound {
				t.Errorf("%s q=%v: got %d, exact %d (allowed ±%d)", name, q, got, want, bound)
			}
		}
		if h.Count() != uint64(len(samples)) {
			t.Errorf("%s: count = %d, want %d", name, h.Count(), len(samples))
		}
		if got, want := int64(h.Max()), exactQuantile(samples, 1); got != want {
			t.Errorf("%s: max = %d, want %d (exact)", name, got, want)
		}
	}
}

// TestBucketIndexMonotone checks bucketing is monotone and within-bound
// over octave boundaries, where off-by-ones would hide.
func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 129, 4095, 4096, 1 << 20, 1<<40 + 12345} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		if i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		mid := bucketMid(i)
		bound := v/histBase + 1
		if mid < v-bound || mid > v+bound {
			t.Fatalf("bucketMid(%d)=%d too far from %d", i, mid, v)
		}
		prev = i
	}
	if h := NewHistogram(); h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}
