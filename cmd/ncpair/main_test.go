package main

import (
	"math"
	"testing"
)

// TestSignTest pins the exact two-sided p against hand-summed binomial tails.
func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		k, n int
		want float64
	}{
		{15, 5, 2 * 21700.0 / (1 << 20)}, // C(20, 0..5) sum to 21,700
		{5, 15, 2 * 21700.0 / (1 << 20)},
		{10, 0, 2.0 / (1 << 10)},
		{10, 10, 1},
		{0, 0, 1}, // all ties: no evidence either way
	} {
		if got := signTest(c.k, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %.6g, want %.6g", c.k, c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
}
