package netbuf

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// refSum is the straightforward RFC 1071 reference: big-endian 16-bit words
// accumulated in a wide integer, folded, inverted.
func refSum(p []byte) uint16 {
	var sum uint64
	for i := 0; i+1 < len(p); i += 2 {
		sum += uint64(p[i])<<8 | uint64(p[i+1])
	}
	if len(p)%2 == 1 {
		sum += uint64(p[len(p)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// TestSumMatchesReference checks Sum against the reference on arbitrary
// inputs, including odd lengths.
func TestSumMatchesReference(t *testing.T) {
	f := func(p []byte) bool { return Sum(p) == refSum(p) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// sumChain is the checksum of a chain's payload as the transports take it:
// the partial sum over its buffers, folded.
func sumChain(c *Chain) uint16 {
	p := PartialOfChain(c)
	return p.Checksum()
}

// TestSumChainFragmentationInvariance checks the linearity property the
// whole inheritance scheme rests on: the checksum of a chain equals the
// checksum of its flattened bytes no matter how the bytes are fragmented
// (odd-length fragments included).
func TestSumChainFragmentationInvariance(t *testing.T) {
	pool := testPool(t, 0)
	f := func(p []byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := pool.NewChain(0)
		for off := 0; off < len(p); {
			n := 1 + rng.Intn(len(p)-off)
			c.Append(testBuf(pool, p[off:off+n]))
			off += n
		}
		ok := sumChain(c) == Sum(p)
		c.Release()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestCombineSplitIdentity checks Combine: for any even-length prefix
// split, sum(a) ⊕ sum(b) == sum(a++b), and the partial of a chain equals
// the combination of its parts' partials — the rule sunrpc uses to extend
// an inherited payload checksum across a prepended header.
func TestCombineSplitIdentity(t *testing.T) {
	f := func(p []byte, cut16 uint16) bool {
		cut := 0
		if len(p) > 0 {
			cut = int(cut16) % (len(p) + 1)
		}
		cut &^= 1 // Combine requires the first part to end on an even boundary
		var a, b Partial
		a.AddBytes(p[:cut])
		b.AddBytes(p[cut:])
		combined := Combine(a, b)
		return combined.Checksum() == Sum(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderPrependInheritance models the transmit path: a cached payload's
// partial is stored once, and each outgoing message folds a fresh
// even-length header in front of it without re-walking the payload.
func TestHeaderPrependInheritance(t *testing.T) {
	pool := testPool(t, 64)
	f := func(header, payload []byte) bool {
		if len(header)%2 == 1 {
			header = append(append([]byte(nil), header...), 0)
		}
		stored := func() Partial {
			c := pool.GetChain(payload)
			defer c.Release()
			return PartialOfChain(c)
		}()
		var hs Partial
		hs.AddBytes(header)
		combined := Combine(hs, stored)
		got := combined.Checksum()
		want := Sum(append(append([]byte(nil), header...), payload...))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialIncrementalOddBytes checks AddBytes handles arbitrary
// odd/even fragment boundaries identically to one contiguous add.
func TestPartialIncrementalOddBytes(t *testing.T) {
	p := make([]byte, 257)
	for i := range p {
		p[i] = byte(i*31 + 7)
	}
	var whole Partial
	whole.AddBytes(p)
	for _, step := range []int{1, 2, 3, 5, 7, 64, 100} {
		var inc Partial
		for off := 0; off < len(p); off += step {
			end := off + step
			if end > len(p) {
				end = len(p)
			}
			inc.AddBytes(p[off:end])
		}
		if inc.Checksum() != whole.Checksum() {
			t.Fatalf("step %d: %#x != %#x", step, inc.Checksum(), whole.Checksum())
		}
	}
}

// oraclePartial is the two-bytes-per-iteration accumulator AddBytes used
// before it went eight bytes wide, kept as the differential-test oracle.
type oraclePartial struct {
	sum uint64
	odd bool
}

func (s *oraclePartial) addBytes(p []byte) {
	i := 0
	if s.odd && len(p) > 0 {
		s.sum += uint64(p[0])
		i = 1
		s.odd = false
	}
	for ; i+1 < len(p); i += 2 {
		s.sum += uint64(p[i])<<8 | uint64(p[i+1])
	}
	if i < len(p) {
		s.sum += uint64(p[i]) << 8
		s.odd = true
	}
}

func (s *oraclePartial) fold() uint16 {
	v := s.sum
	for v > 0xffff {
		v = (v >> 16) + (v & 0xffff)
	}
	return uint16(v)
}

// TestAddBytesMatchesTwoByteOracle is the differential test for the wide
// accumulator: random lengths 0–9000, random fragmentations (so fragments
// start at odd offsets and on every alignment of the 8-byte loop), Combine of
// independently summed halves, AddUint16, and the saturating patterns
// (all-0xff, all-zero) where the end-around carry and the zero
// representation matter.
func TestAddBytesMatchesTwoByteOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 3000; iter++ {
		p := make([]byte, rng.Intn(9001))
		switch iter % 10 {
		case 0:
			for i := range p {
				p[i] = 0xff
			}
		case 1: // all zero
		default:
			rng.Read(p)
		}
		var got Partial
		var want oraclePartial
		for off := 0; off < len(p); {
			n := 1 + rng.Intn(len(p)-off)
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(min(17, len(p)-off))
			}
			got.AddBytes(p[off : off+n])
			want.addBytes(p[off : off+n])
			off += n
			if got.Fold() != want.fold() || got.odd != want.odd {
				t.Fatalf("iter %d, %d of %d bytes: fold %#04x odd %v, oracle %#04x odd %v",
					iter, off, len(p), got.Fold(), got.odd, want.fold(), want.odd)
			}
		}
		if !got.odd {
			w := uint16(rng.Intn(1 << 16))
			got.AddUint16(w)
			want.sum += uint64(w)
			if got.Fold() != want.fold() {
				t.Fatalf("iter %d: AddUint16(%#04x): fold %#04x, oracle %#04x", iter, w, got.Fold(), want.fold())
			}
		}
		// Combine of independently summed halves, cut on an even boundary.
		cut := rng.Intn(len(p)+1) &^ 1
		var a, b Partial
		a.AddBytes(p[:cut])
		b.AddBytes(p[cut:])
		var whole oraclePartial
		whole.addBytes(p)
		if c := Combine(a, b); c.Fold() != whole.fold() || c.odd != whole.odd {
			t.Fatalf("iter %d: Combine at %d of %d: fold %#04x, oracle %#04x", iter, cut, len(p), c.Fold(), whole.fold())
		}
	}
}

// checksumSink keeps the benchmarked sums live.
var checksumSink uint16

// BenchmarkAddBytes sums a TCP segment's payload (1,460 B) and a file-system
// block (4,096 B).
func BenchmarkAddBytes(b *testing.B) {
	for _, n := range []int{1460, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			p := make([]byte, n)
			rand.New(rand.NewSource(1)).Read(p)
			b.SetBytes(int64(n))
			var s Partial
			for i := 0; i < b.N; i++ {
				s.AddBytes(p)
			}
			checksumSink = s.Fold()
		})
	}
}
