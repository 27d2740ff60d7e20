package lkey

import (
	"testing"
	"testing/quick"

	"ncache/internal/netbuf"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	cases := []Key{
		ForLBN(12345),
		ForFHO(FH{1, 2, 3, 4, 5, 6, 7, 8}, 1<<40),
		ForFHO(FH{9}, 4096).WithLBN(77),
		{},
	}
	for _, in := range cases {
		m := in.Marshal()
		out, ok := Parse(m[:])
		if !ok {
			t.Fatalf("Parse(%+v) failed", in)
		}
		if out != in {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
	}
}

func TestParseRejectsNonKeys(t *testing.T) {
	if _, ok := Parse(make([]byte, Size)); ok {
		t.Fatal("zero bytes parsed as key")
	}
	if _, ok := Parse([]byte("short")); ok {
		t.Fatal("short buffer parsed as key")
	}
	real := make([]byte, 4096)
	for i := range real {
		real[i] = byte(i)
	}
	if _, ok := Parse(real); ok {
		t.Fatal("payload bytes parsed as key")
	}
}

func TestStampMakesLogicalBlock(t *testing.T) {
	block := make([]byte, 4096)
	Stamp(block, ForLBN(9))
	k, ok := Parse(block)
	if !ok || k.LBN != 9 {
		t.Fatalf("stamped key = %+v, ok=%v", k, ok)
	}
}

func TestFromChainAcrossBufferBoundaries(t *testing.T) {
	k := ForFHO(FH{0xaa}, 123).WithLBN(55)
	m := k.Marshal()
	block := make([]byte, 4096)
	copy(block, m[:])
	// Key split across tiny buffers.
	c := netbuf.ChainFromBytes(block, 7)
	got, ok := FromChain(c)
	if !ok || got != k {
		t.Fatalf("FromChain = %+v ok=%v", got, ok)
	}
	// Leading empty buffer.
	c2 := netbuf.ChainOf(netbuf.New(16, 0))
	c2.AppendChain(netbuf.ChainFromBytes(block, 1500))
	got2, ok := FromChain(c2)
	if !ok || got2 != k {
		t.Fatalf("FromChain with empty leader = %+v ok=%v", got2, ok)
	}
}

func TestStampChain(t *testing.T) {
	c := StampChainPool(nil, ForLBN(3), 4096)
	if c.Len() != 4096 {
		t.Fatalf("Len = %d", c.Len())
	}
	k, ok := FromChain(c)
	if !ok || k.LBN != 3 {
		t.Fatalf("key = %+v ok=%v", k, ok)
	}
	// Tiny block sizes are padded up to the key size.
	c2 := StampChainPool(nil, ForLBN(1), 8)
	if c2.Len() != Size {
		t.Fatalf("tiny StampChain len = %d, want %d", c2.Len(), Size)
	}
}

func TestWithLBNPreservesFHO(t *testing.T) {
	k := ForFHO(FH{5}, 999).WithLBN(42)
	if k.Flags != HasLBN|HasFHO {
		t.Fatalf("flags = %b", k.Flags)
	}
	if k.LBN != 42 || k.Off != 999 || k.FH != (FH{5}) {
		t.Fatalf("key = %+v", k)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(flags uint8, lbn int64, fh [8]byte, off uint64) bool {
		in := Key{Flags: flags, LBN: lbn, FH: FH(fh), Off: off}
		m := in.Marshal()
		out, ok := Parse(m[:])
		return ok && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
