package main

import (
	"math"
	"reflect"
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

// TestSimChange: without -sim a simulated difference fails the pair; with it
// only a difference in failed ops does, and each simulated metric reports
// both medians and the pairs the change won, by its direction.
func TestSimChange(t *testing.T) {
	rep := func(slo, cpu, tail float64, failed uint64) *child {
		return &child{
			Sim:    map[string]float64{"sim_in_slo_pct": slo, "sim_server_cpu_us_per_op": cpu},
			P50Us:  100,
			TailUs: tail,
			Failed: failed,
		}
	}
	same, moved := rep(99.7, 77, 11600, 0), rep(100, 77.1, 8000, 0)
	if err := compare(same, rep(99.7, 77, 11600, 0), false); err != nil {
		t.Errorf("identical runs: %v", err)
	}
	if err := compare(same, moved, false); err == nil {
		t.Error("a simulated difference passed without -sim")
	}
	if err := compare(same, moved, true); err != nil {
		t.Errorf("a simulated difference failed with -sim: %v", err)
	}
	if err := compare(same, rep(99.7, 77, 11600, 1), true); err == nil {
		t.Error("a difference in failed ops passed with -sim")
	}

	pairs := [][2]*child{
		{rep(99.7, 77, 11600, 0), rep(100, 77.1, 8000, 0)},
		{rep(99.72, 77, 11700, 0), rep(100, 76.9, 7900, 0)},
		{rep(100, 77, 9000, 0), rep(100, 77.2, 9100, 0)},
	}
	want := []simRow{
		{"sim_in_slo_pct", 99.72, 100, 2},
		{"sim_server_cpu_us_per_op", 77, 77.1, 1},
		{"sim_p50_us", 100, 100, 0},
		{"sim_tail_us", 11600, 8000, 2},
	}
	if got := simRows(pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("simRows = %+v, want %+v", got, want)
	}
}
