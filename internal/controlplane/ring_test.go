package controlplane

import (
	"slices"
	"testing"

	"ncache/internal/lkey"
	"ncache/internal/proto/eth"
)

// fhOf builds a distinct file handle per index.
func fhOf(i uint64) lkey.FH {
	var fh lkey.FH
	fh[0] = byte(i >> 56)
	fh[1] = byte(i >> 48)
	fh[2] = byte(i >> 40)
	fh[3] = byte(i >> 32)
	fh[4] = byte(i >> 24)
	fh[5] = byte(i >> 16)
	fh[6] = byte(i >> 8)
	fh[7] = byte(i)
	return fh
}

// TestRingBalance: with 64 vnodes per member the keyspace must spread so no
// member carries more than twice the load of any other.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		r := NewRing(DefaultVNodes)
		for m := 0; m < n; m++ {
			r.Add(m)
		}
		counts := make([]int, n)
		const keys = 100_000
		for k := uint64(0); k < keys; k++ {
			m := r.Lookup(k)
			if m < 0 || m >= n {
				t.Fatalf("n=%d: lookup(%d) = %d out of range", n, k, m)
			}
			counts[m]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min == 0 || float64(max)/float64(min) > 2.0 {
			t.Fatalf("n=%d: imbalanced ring: member loads %v (max/min > 2)", n, counts)
		}
	}
}

// TestRingMinimalMovement: adding a member must only move keys onto the new
// member (about 1/n of them), never shuffle keys between old members.
func TestRingMinimalMovement(t *testing.T) {
	const n, keys = 4, 50_000
	r := NewRing(DefaultVNodes)
	for m := 0; m < n; m++ {
		r.Add(m)
	}
	before := make([]int, keys)
	for k := range before {
		before[k] = r.Lookup(uint64(k))
	}
	r.Add(n)
	moved := 0
	for k := range before {
		now := r.Lookup(uint64(k))
		if now == before[k] {
			continue
		}
		if now != n {
			t.Fatalf("key %d moved between old members: %d -> %d", k, before[k], now)
		}
		moved++
	}
	if moved == 0 {
		t.Fatalf("adding a member moved no keys onto it")
	}
	if frac := float64(moved) / keys; frac > 2.0/float64(n+1) {
		t.Fatalf("adding one member moved %.1f%% of keys (want about %.1f%%)",
			100*frac, 100.0/float64(n+1))
	}
}

// TestRingDeterministic: the ring is a pure function of its member set —
// insertion order must not matter, and repeated lookups must agree.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(DefaultVNodes)
	b := NewRing(DefaultVNodes)
	for _, m := range []int{0, 1, 2, 3} {
		a.Add(m)
	}
	for _, m := range []int{3, 1, 0, 2} {
		b.Add(m)
	}
	for k := uint64(0); k < 10_000; k++ {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("key %d: placement depends on insertion order (%d vs %d)",
				k, a.Lookup(k), b.Lookup(k))
		}
	}
	if a.Lookup(42) != a.Lookup(42) {
		t.Fatalf("lookup not stable")
	}
	if NewRing(DefaultVNodes).Lookup(1) != -1 {
		t.Fatalf("empty ring must answer -1")
	}
}

// TestRegistryPlacement: every server is a member, and the ring places a
// handle on one of them.
func TestRegistryPlacement(t *testing.T) {
	addrs := []eth.Addr{0x0a000010, 0x0a000018, 0x0a000020, 0x0a000028}
	g := NewRegistry(addrs)
	if got := g.Members(); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Members() = %v, want [0 1 2 3]", got)
	}
	hashed := g.ring.LookupFH(fhOf(7))
	if hashed < 0 || hashed >= len(addrs) {
		t.Fatalf("placement out of range: %d", hashed)
	}
	if g.AddrOf(hashed) != addrs[hashed] {
		t.Fatalf("AddrOf(%d) = %x, want %x", hashed, g.AddrOf(hashed), addrs[hashed])
	}
}
