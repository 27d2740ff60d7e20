package lkey

import (
	"testing"
	"testing/quick"

	"ncache/internal/netbuf"
)

// blkPool returns a pool of block-sized buffers for stamped chains.
func blkPool() *netbuf.Pool { return netbuf.NewPool("lkey", netbuf.DefaultHeadroom, 4096, 0) }

func TestMarshalParseRoundTrip(t *testing.T) {
	cases := []Key{
		ForLBN(12345),
		ForFHO(FH{1, 2, 3, 4, 5, 6, 7, 8}, 1<<40),
		ForFHO(FH{9}, 4096).WithLBN(77),
		{},
	}
	for _, in := range cases {
		m := in.Marshal()
		out, ok := parse(m[:])
		if !ok {
			t.Fatalf("Parse(%+v) failed", in)
		}
		if out != in {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
	}
}

func TestParseRejectsNonKeys(t *testing.T) {
	if _, ok := parse(make([]byte, Size)); ok {
		t.Fatal("zero bytes parsed as key")
	}
	if _, ok := parse([]byte("short")); ok {
		t.Fatal("short buffer parsed as key")
	}
	real := make([]byte, 4096)
	for i := range real {
		real[i] = byte(i)
	}
	if _, ok := parse(real); ok {
		t.Fatal("payload bytes parsed as key")
	}
}

func TestStampMakesLogicalBlock(t *testing.T) {
	c := StampChainPool(blkPool(), ForLBN(9), 4096)
	k, ok := Of(c.Bufs()[0])
	if !ok || k.LBN != 9 {
		t.Fatalf("stamped key = %+v, ok=%v", k, ok)
	}
}

func TestStampChain(t *testing.T) {
	c := StampChainPool(blkPool(), ForLBN(3), 4096)
	if c.Len() != 4096 {
		t.Fatalf("Len = %d", c.Len())
	}
	k, ok := Of(c.Bufs()[0])
	if !ok || k.LBN != 3 {
		t.Fatalf("key = %+v ok=%v", k, ok)
	}
	// A block shorter than a key is a window that short onto a full stamp.
	c2 := StampChainPool(blkPool(), ForLBN(1), 8)
	if c2.Len() != 8 {
		t.Fatalf("tiny StampChain len = %d, want 8", c2.Len())
	}
	if k, ok := Of(c2.Bufs()[0]); !ok || k != ForLBN(1) {
		t.Fatalf("tiny StampChain key = %+v ok=%v", k, ok)
	}
}

// TestOfReadsOnlyTheMark: a window is a key because its buffer was stamped,
// never because of the bytes it carries.
func TestOfReadsOnlyTheMark(t *testing.T) {
	k := ForFHO(FH{0xaa}, 123).WithLBN(55)
	m := k.Marshal()
	t.Run("unmarked bytes that start with a key", func(t *testing.T) {
		block := make([]byte, 4096)
		copy(block, m[:])
		c := netbuf.NewPool("tx", netbuf.DefaultHeadroom, 1500, 0).GetChain(block)
		if got, ok := Of(c.Bufs()[0]); ok {
			t.Fatalf("payload bytes read as key %+v", got)
		}
	})
	t.Run("marked buffer, window off its head", func(t *testing.T) {
		sub, err := StampChainPool(blkPool(), k, 4096).SubChain(1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := Of(sub.Bufs()[0]); ok {
			t.Fatalf("window inside a junk buffer read as key %+v", got)
		}
	})
	t.Run("marked buffer whose stamp is overwritten", func(t *testing.T) {
		c := StampChainPool(blkPool(), k, 4096)
		clear(c.Bufs()[0].Bytes()[:8])
		defer func() {
			if recover() == nil {
				t.Fatal("a marked buffer without a key passed")
			}
		}()
		Of(c.Bufs()[0])
	})
	t.Run("pool reuse clears the mark", func(t *testing.T) {
		p := netbuf.NewPool("lkey-test", netbuf.DefaultHeadroom, 4096, 0)
		StampChainPool(p, k, 4096).Release()
		b := p.GetSized(4096, 0)
		if p.Reuses() != 1 {
			t.Fatalf("reuses = %d, want 1", p.Reuses())
		}
		copy(b.Bytes(), m[:])
		if got, ok := Of(p.ChainOf(b).Bufs()[0]); ok {
			t.Fatalf("reused buffer read as key %+v", got)
		}
	})
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
		out, ok := parse(m[:])
		return ok && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
