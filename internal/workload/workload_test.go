package workload

import (
	"testing"
	"testing/quick"

	"ncache/internal/nfs"
	"ncache/internal/sim"
)

func TestZipfRankOrdering(t *testing.T) {
	z, rng := NewZipf(100, 1.0), sim.NewRNG(1)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Draw(rng)]++
	}
	// Rank 0 is the most popular; popularity decays monotonically in
	// aggregate (allow sampling noise on adjacent ranks).
	if counts[0] < counts[10] || counts[10] < counts[50] {
		t.Fatalf("zipf not decaying: c0=%d c10=%d c50=%d", counts[0], counts[10], counts[50])
	}
	// For s=1, p(0)/p(9) = 10; sampled ratio should be in the ballpark.
	ratio := float64(counts[0]) / float64(counts[9]+1)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("p(0)/p(9) = %.1f, want ~10", ratio)
	}
}

func TestZipfBounds(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16)%500 + 1
		z, rng := NewZipf(n, 0.8), sim.NewRNG(seed)
		for i := 0; i < 200; i++ {
			if v := z.Draw(rng); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPageSet(t *testing.T) {
	ps := BuildPageSet(10 << 20)
	total := 0
	for _, s := range ps.Sizes {
		total += s
	}
	if total < 10<<20 {
		t.Fatalf("total = %d, want >= 10MB", total)
	}
	if len(ps.Names) != len(ps.Sizes) {
		t.Fatal("names/sizes mismatch")
	}
	seen := map[string]bool{}
	for _, n := range ps.Names {
		if seen[n] {
			t.Fatalf("duplicate page name %q", n)
		}
		seen[n] = true
	}
	// The class mix mean is what the docs promise (~75 KB).
	weights, sum := 0, 0
	for _, c := range WebPageClasses {
		weights += c.Weight
		sum += c.Size * c.Weight
	}
	if mean := sum / weights; mean < 60<<10 || mean > 90<<10 {
		t.Fatalf("mean page size = %d, want ≈75KB", mean)
	}
}

func TestItoa(t *testing.T) {
	for v, want := range map[int]string{0: "0", 7: "7", 42: "42", 12345: "12345"} {
		if got := itoa(v); got != want {
			t.Fatalf("itoa(%d) = %q", v, got)
		}
	}
}

func TestGenSequentialRead(t *testing.T) {
	tr := GenSequentialRead(nfs.RootFH(), 1<<20, 64*1024)
	if len(tr.Ops) != 16 {
		t.Fatalf("ops = %d, want 16", len(tr.Ops))
	}
	for i, op := range tr.Ops {
		if op.Kind != OpRead || op.Off != uint64(i)*64*1024 || op.Len != 64*1024 {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
}

func TestSFSSizeDistribution(t *testing.T) {
	rng := sim.NewRNG(9)
	counts := map[int]int{}
	for i := 0; i < 10000; i++ {
		counts[pickSize(rng)]++
	}
	if counts[4096] < counts[8192] || counts[8192] < counts[16384] || counts[16384] < counts[32768] {
		t.Fatalf("size distribution not dominated by small requests: %v", counts)
	}
	for s := range counts {
		switch s {
		case 4096, 8192, 16384, 32768:
		default:
			t.Fatalf("unexpected size %d", s)
		}
	}
}
