package netbuf

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestBufGeometry(t *testing.T) {
	b := New(32, 100)
	if b.Len() != 0 || b.head != 32 || b.Tailroom() != 100 {
		t.Fatalf("fresh buf geometry wrong: %v", b)
	}
	if len(b.backing) != 132 {
		t.Fatalf("Capacity = %d, want 132", len(b.backing))
	}
}

func TestBufPushPullRoundTrip(t *testing.T) {
	b := FromBytes([]byte("payload"))
	hdr, err := b.Push(4)
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
	copy(hdr, "HDR:")
	if got := string(b.Bytes()); got != "HDR:payload" {
		t.Fatalf("after push: %q", got)
	}
	c := ChainOf(b)
	defer c.Release()
	got, err := c.PullFront(4)
	if err != nil {
		t.Fatalf("PullFront: %v", err)
	}
	if string(got) != "HDR:" {
		t.Fatalf("PullFront returned %q", got)
	}
	if string(c.Front()) != "payload" {
		t.Fatalf("after pull: %q", c.Front())
	}
}

func TestBufPushBeyondHeadroom(t *testing.T) {
	b := New(8, 10)
	if _, err := b.Push(9); !errors.Is(err, ErrNoHeadroom) {
		t.Fatalf("Push beyond headroom: err = %v, want ErrNoHeadroom", err)
	}
	if _, err := b.Push(-1); !errors.Is(err, ErrNoHeadroom) {
		t.Fatalf("negative Push: err = %v, want ErrNoHeadroom", err)
	}
}

func TestBufPutAndPullBounds(t *testing.T) {
	b := New(0, 10)
	if err := b.Put(6); err != nil {
		t.Fatalf("Put: %v", err)
	}
	copy(b.Bytes(), "abcdef")
	if err := b.Put(5); !errors.Is(err, ErrNoTailroom) {
		t.Fatalf("Put beyond tailroom: err = %v", err)
	}
	c := ChainOf(b)
	defer c.Release()
	if _, err := c.PullFront(7); !errors.Is(err, ErrShortBuf) {
		t.Fatalf("PullFront beyond len: err = %v", err)
	}
	if _, err := c.PushFront(1); !errors.Is(err, ErrNoHeadroom) {
		t.Fatalf("PushFront without headroom: err = %v", err)
	}
	if string(c.Front()) != "abcdef" {
		t.Fatalf("failed moves changed the window: %q", c.Front())
	}
}

func TestBufAppend(t *testing.T) {
	b := New(0, 8)
	if err := b.Append([]byte("ab")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := b.Append([]byte("cd")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if string(b.Bytes()) != "abcd" {
		t.Fatalf("Bytes = %q", b.Bytes())
	}
	if err := b.Append(make([]byte, 5)); !errors.Is(err, ErrNoTailroom) {
		t.Fatalf("over-append err = %v", err)
	}
}

func TestBufCloneSharesBytes(t *testing.T) {
	c := ChainOf(FromBytes([]byte("hello world")))
	cl := c.Clone()
	if !bytes.Equal(cl.Front(), c.Front()) {
		t.Fatal("clone payload differs")
	}
	// Windows are independent.
	if _, err := cl.PullFront(6); err != nil {
		t.Fatalf("PullFront on clone: %v", err)
	}
	if string(cl.Front()) != "world" || string(c.Front()) != "hello world" {
		t.Fatal("clone window not independent")
	}
	// Backing is shared: a write through the original shows in the clone.
	c.Front()[6] = 'W'
	if string(cl.Front()) != "World" {
		t.Fatal("clone does not share backing bytes (copied instead of aliased)")
	}
	cl.Release()
	c.Release()
}

// A clone of a clone, and of a sub-chain, still takes exactly one reference
// per window on the root: the root lives until the last of them is released.
func TestBufCloneOfClone(t *testing.T) {
	p := NewPool("t", 0, 64, 0)
	c := p.GetChain([]byte("abcdef"))
	b := c.Bufs()[0].root
	c1 := c.Clone()
	c2 := c1.Clone()
	sub, err := c2.SubChain(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Equal(c) || string(sub.Flatten()) != "bcd" {
		t.Fatal("clone-of-clone payload differs")
	}
	if b.refs != 4 {
		t.Fatalf("root refs = %d, want 4 (one per window)", b.refs)
	}
	for _, x := range []*Chain{c2, c1, c, sub} {
		if p.Outstanding() != 1 {
			t.Fatal("root recycled while a window still refers to it")
		}
		x.Release()
	}
	if p.Outstanding() != 0 || p.DoubleFrees() != 0 {
		t.Fatalf("outstanding %d, double frees %d", p.Outstanding(), p.DoubleFrees())
	}
}

func TestPoolReuseAndAccounting(t *testing.T) {
	p := NewPool("rx", 32, 256, 0)
	var bufs []*Buf
	for i := 0; i < 4; i++ {
		bufs = append(bufs, p.Get())
	}
	if p.Outstanding() != 4 || p.Peak() != 4 {
		t.Fatalf("Outstanding=%d Peak=%d, want 4/4", p.Outstanding(), p.Peak())
	}
	if p.OutstandingBytes() != 4*(32+256) {
		t.Fatalf("OutstandingBytes = %d", p.OutstandingBytes())
	}
	bufs[0].Release()
	if p.Outstanding() != 3 {
		t.Fatalf("Outstanding after release = %d, want 3", p.Outstanding())
	}
	b := p.Get()
	if p.Reuses() != 1 {
		t.Fatalf("Reuses = %d, want 1", p.Reuses())
	}
	if b.Len() != 0 || b.head != 32 {
		t.Fatal("recycled buffer not reset")
	}
	if p.DoubleFrees() != 0 {
		t.Fatalf("DoubleFrees = %d", p.DoubleFrees())
	}
}

func TestPoolDoubleFreeDetected(t *testing.T) {
	p := NewPool("rx", 0, 64, 0)
	b := p.Get()
	b.Release()
	if DebugEnabled() {
		// Debug mode promotes the counter to a panic naming the owner.
		defer func() {
			if recover() == nil {
				t.Fatal("double free did not panic in debug mode")
			}
		}()
		b.Release()
		return
	}
	b.Release()
	if p.DoubleFrees() != 1 {
		t.Fatalf("DoubleFrees = %d, want 1", p.DoubleFrees())
	}
}

func TestPoolCloneKeepsBufferAlive(t *testing.T) {
	p := NewPool("rx", 0, 64, 0)
	c := p.GetChain([]byte("cached"))
	cl := c.Clone()
	c.Release() // original reference dropped; clone still holds it
	if p.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d, want 1 while clone alive", p.Outstanding())
	}
	if string(cl.Front()) != "cached" {
		t.Fatalf("clone lost payload: %q", cl.Front())
	}
	cl.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d, want 0 after clone released", p.Outstanding())
	}
	if p.DoubleFrees() != 0 {
		t.Fatalf("DoubleFrees = %d", p.DoubleFrees())
	}
}

func TestPoolRetainRelease(t *testing.T) {
	p := NewPool("rx", 0, 64, 0)
	b := p.Get()
	b.Retain()
	b.Release()
	if p.Outstanding() != 1 {
		t.Fatal("buffer freed while a retained reference exists")
	}
	b.Release()
	if p.Outstanding() != 0 {
		t.Fatal("buffer not freed after final release")
	}
}

// TestPoolGetSizedTooLarge: a size the pool's buffers cannot hold gets a
// standalone buffer, and a nil pool always does; neither touches a pool.
func TestPoolGetSizedTooLarge(t *testing.T) {
	p := NewPool("rx", 0, 8, 0)
	for _, tc := range []struct {
		pool *Pool
		n    int
	}{{p, 9}, {nil, 4}} {
		b := tc.pool.GetSized(tc.n, 3)
		if b.pool != nil || b.Len() != tc.n || b.head != 3 {
			t.Fatalf("GetSized(%d) on %v: pool %v len %d headroom %d, want a standalone %d-byte buffer behind 3 bytes",
				tc.n, tc.pool, b.pool, b.Len(), b.head, tc.n)
		}
		b.Release()
	}
	b := p.GetSized(8, 3)
	if b.pool != p || b.Len() != 8 || p.Outstanding() != 1 {
		t.Fatalf("GetSized(8): pool %v len %d outstanding %d, want a pooled 8-byte buffer", b.pool, b.Len(), p.Outstanding())
	}
	b.Release()
	p.MustBeDrained()
}

func TestBufPropertyPushPullInverse(t *testing.T) {
	f := func(payload []byte, n uint8) bool {
		b := FromBytes(payload)
		k := int(n) % (DefaultHeadroom + 1)
		hdr, err := b.Push(k)
		if err != nil {
			return false
		}
		for i := range hdr {
			hdr[i] = byte(i)
		}
		c := ChainOf(b)
		defer c.Release()
		got, err := c.PullFront(k)
		if err != nil {
			return false
		}
		for i := range got {
			if got[i] != byte(i) {
				return false
			}
		}
		return bytes.Equal(c.Front(), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
