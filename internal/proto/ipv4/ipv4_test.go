package ipv4

import (
	"testing"
	"testing/quick"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
)

func TestHeaderRoundTrip(t *testing.T) {
	cases := []Header{
		{TotalLen: 20, ID: 1, TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2},
		{TotalLen: 1500, ID: 7, MoreFrags: true, FragOffset: 1480, TTL: 3, Proto: ProtoTCP, Src: 0xffffffff, Dst: 0},
		{TotalLen: 60, ID: 0xffff, FragOffset: 8 * 1024, TTL: 255, Proto: 99, Src: 10, Dst: 20},
	}
	pool := netbuf.NewPool("ipv4", netbuf.DefaultHeadroom, 100, 0)
	for _, in := range cases {
		c := pool.GetChain([]byte("xyz"))
		if err := in.Push(c); err != nil {
			t.Fatalf("Push(%+v): %v", in, err)
		}
		out, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%+v): %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
		if string(c.Flatten()) != "xyz" {
			t.Fatalf("payload corrupted")
		}
		c.Release()
	}
	pool.MustBeDrained()
}

func TestParseRejectsCorruptHeader(t *testing.T) {
	c := netbuf.NewPool("ipv4", netbuf.DefaultHeadroom, 100, 0).GetChain([]byte("payload"))
	defer c.Release()
	h := Header{TotalLen: 27, ID: 3, TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2}
	if err := h.Push(c); err != nil {
		t.Fatalf("Push: %v", err)
	}
	// Flip a bit in the header.
	c.Bufs()[0].Bytes()[8] ^= 0xff
	if _, err := Parse(c); err == nil {
		t.Fatal("Parse accepted corrupt header")
	}
}

func TestParseRejectsShortAndBadVersion(t *testing.T) {
	pool := netbuf.NewPool("ipv4", netbuf.DefaultHeadroom, 100, 0)
	short := pool.GetChain([]byte{1, 2, 3})
	defer short.Release()
	if _, err := Parse(short); err == nil {
		t.Fatal("Parse accepted short header")
	}
	c := pool.GetChain(nil)
	defer c.Release()
	h := Header{TotalLen: 20, TTL: 1, Proto: 1, Src: 1, Dst: 2}
	if err := h.Push(c); err != nil {
		t.Fatalf("Push: %v", err)
	}
	c.Bufs()[0].Bytes()[0] = 0x60 // IPv6 version nibble
	if _, err := Parse(c); err == nil {
		t.Fatal("Parse accepted bad version")
	}
}

func TestHeaderPropertyRoundTrip(t *testing.T) {
	pool := netbuf.NewPool("ipv4", netbuf.DefaultHeadroom, 64, 0)
	f := func(totalLen, id, fragOff uint16, ttl, proto uint8, src, dst uint32, more bool) bool {
		in := Header{
			TotalLen:   totalLen,
			ID:         id,
			MoreFrags:  more,
			FragOffset: (fragOff % 8191) * 8,
			TTL:        ttl,
			Proto:      proto,
			Src:        eth.Addr(src),
			Dst:        eth.Addr(dst),
		}
		c := pool.GetChain(nil)
		defer c.Release()
		if err := in.Push(c); err != nil {
			return false
		}
		out, err := Parse(c)
		if err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
