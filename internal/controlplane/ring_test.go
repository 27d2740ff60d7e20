package controlplane

import (
	"encoding/binary"
	"testing"

	"ncache/internal/lkey"
	"ncache/internal/storage"
)

// fhOf builds the handle of inode ino, laid out as the pass-through server
// writes it (the inode number in bytes 0–3, the rest zero).
func fhOf(ino uint64) lkey.FH {
	var fh lkey.FH
	binary.BigEndian.PutUint32(fh[0:4], uint32(ino))
	return fh
}

// ringOf builds a ring over members 0..n-1.
func ringOf(n int) *Ring {
	r := NewRing(n)
	for m := 0; m < n; m++ {
		r.Add(m)
	}
	return r
}

// TestRingBalance: n·m files with sequential inode numbers, as the file
// system allocates them, place exactly m on every member.
func TestRingBalance(t *testing.T) {
	const perMember = 8
	for _, n := range []int{1, 2, 4, 8} {
		r := ringOf(n)
		counts := make([]int, n)
		const firstIno = 3 // wherever the sequence starts
		for ino := uint64(firstIno); ino < firstIno+uint64(n*perMember); ino++ {
			m := r.LookupFH(fhOf(ino))
			if m < 0 || m >= n {
				t.Fatalf("n=%d: inode %d placed on %d, out of range", n, ino, m)
			}
			counts[m]++
		}
		for m, c := range counts {
			if c != perMember {
				t.Fatalf("n=%d: member loads %v, want %d each (member %d)", n, counts, perMember, m)
			}
		}
	}
}

// TestRingSpreadsSmallKeys: small keys — range indices 0..63, which cover
// every LBN under 256 MB, and handles whose first 8 bytes are m<<32 (inode
// m) — spread evenly across the members instead of landing on one.
func TestRingSpreadsSmallKeys(t *testing.T) {
	const keys = 64
	for _, n := range []int{2, 4, 8} {
		r := ringOf(n)
		byKey, byFH := make([]int, n), make([]int, n)
		for k := uint64(0); k < keys; k++ {
			byKey[r.Lookup(k)]++
			var fh lkey.FH
			binary.BigEndian.PutUint64(fh[:8], k<<32)
			byFH[r.LookupFH(fh)]++
		}
		for m := 0; m < n; m++ {
			if byKey[m] != keys/n || byFH[m] != keys/n {
				t.Fatalf("n=%d: keys 0..%d place %v, handles m<<32 place %v; want %d on every member",
					n, keys-1, byKey, byFH, keys/n)
			}
		}
	}
}

// TestRingDeterministic: the ring is a pure function of its member set —
// insertion order and repeated insertion must not matter, and repeated
// lookups must agree.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(0)
	b := NewRing(0)
	for _, m := range []int{0, 1, 2, 3} {
		a.Add(m)
	}
	for _, m := range []int{3, 1, 0, 2, 1} {
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
	if NewRing(0).Lookup(1) != -1 {
		t.Fatalf("empty ring must answer -1")
	}
}

// TestRingLookupZeroAllocs: placing a request costs no allocation, on either
// tier — a handle on a front-end server, a block on an iSCSI target.
func TestRingLookupZeroAllocs(t *testing.T) {
	r := ringOf(8)
	tm := storage.NewTargetMap(2)
	var sink int
	ino, lbn := uint64(0), int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		sink += r.LookupFH(fhOf(ino)) + tm.TargetOf(lbn)
		ino++
		lbn += 509
	})
	if allocs != 0 {
		t.Fatalf("LookupFH + TargetOf allocate %.1f objects per call, want 0", allocs)
	}
	_ = sink
}

// TestResolverLocalRing: a client's resolver, built from the server count
// alone, places every handle where the ring over that many members does —
// inode mod n — and answers every lookup locally.
func TestResolverLocalRing(t *testing.T) {
	const servers, handles = 3, 64
	r, ring := NewResolver(servers), ringOf(servers)
	for i := uint64(0); i < handles; i++ {
		if got, want := r.Resolve(fhOf(i)), ring.LookupFH(fhOf(i)); got != want || got != int(i%servers) {
			t.Fatalf("handle %d placed on %d, ring says %d", i, got, want)
		}
	}
	if want := (ResolverStats{Lookups: handles, LocalHits: handles}); r.Stats != want {
		t.Fatalf("Stats = %+v, want %+v", r.Stats, want)
	}
}
