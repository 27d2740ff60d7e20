// Package workload implements the paper's load generators: the all-miss and
// all-hit micro-benchmarks (synthetic traces driven by an Active Trace
// Player analogue, §5.3), an SFS-like NFS macro-benchmark, and a
// SPECweb99-like static web load with Zipf-distributed page popularity.
package workload

import (
	"math"

	"ncache/internal/sim"
)

// Zipf samples ranks 1..N with probability proportional to 1/rank^s,
// matching the web-access popularity model of [Breslau et al. 1999] the
// paper cites for SPECweb99.
type Zipf struct {
	// cdf[i] is the cumulative probability of ranks 0..i.
	cdf []float64
}

// NewZipf builds a sampler over n items with exponent s (s=0.8–1.0 is
// typical for web traffic).
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Draw returns an item index in [0, n), rank-0 most popular, sampled with
// the caller's random source, so streams that must not share an RNG can
// share one table.
func (z *Zipf) Draw(rng *sim.RNG) int {
	u := rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
