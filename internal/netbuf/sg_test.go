package netbuf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// chainFrom builds a chain on p over payload fragmented at the given cut
// points, exercising arbitrary buffer boundaries (including empty buffers).
func chainFrom(p *Pool, payload []byte, cuts []int) *Chain {
	c := p.NewChain(0)
	prev := 0
	for _, cut := range cuts {
		if cut < prev {
			cut = prev
		}
		if cut > len(payload) {
			cut = len(payload)
		}
		c.Append(testBuf(p, payload[prev:cut]))
		prev = cut
	}
	c.Append(testBuf(p, payload[prev:]))
	return c
}

// fragSpec is the quick.Check input: a payload plus fragmentation and a
// slicing window derived from raw seeds.
type fragSpec struct {
	Payload []byte
	Cuts    []uint16
	Off     uint16
	N       uint16
}

// normalize derives an in-range fragmentation and window.
func (f fragSpec) normalize() (payload []byte, cuts []int, off, n int) {
	payload = f.Payload
	cuts = make([]int, 0, len(f.Cuts))
	for _, c := range f.Cuts {
		if len(payload) > 0 {
			cuts = append(cuts, int(c)%(len(payload)+1))
		} else {
			cuts = append(cuts, 0)
		}
	}
	// Cut points must be non-decreasing for chainFrom.
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	off = 0
	if len(payload) > 0 {
		off = int(f.Off) % (len(payload) + 1)
	}
	n = 0
	if rest := len(payload) - off; rest > 0 {
		n = int(f.N) % (rest + 1)
	}
	return payload, cuts, off, n
}

func TestRangeMatchesFlatReference(t *testing.T) {
	p := testPool(t, 0)
	prop := func(f fragSpec) bool {
		payload, cuts, off, n := f.normalize()
		c := chainFrom(p, payload, cuts)
		defer c.Release()
		var got []byte
		if err := c.Range(off, n, func(p []byte) { got = append(got, p...) }); err != nil {
			return false
		}
		return bytes.Equal(got, payload[off:off+n])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubChainMatchesFlatReference(t *testing.T) {
	p := testPool(t, 0)
	prop := func(f fragSpec) bool {
		payload, cuts, off, n := f.normalize()
		c := chainFrom(p, payload, cuts)
		defer c.Release()
		sub, err := c.SubChain(off, n)
		if err != nil {
			return false
		}
		defer sub.Release()
		if sub.Len() != n {
			return false
		}
		return bytes.Equal(sub.Flatten(), payload[off:off+n])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherRangeMatchesFlatReference(t *testing.T) {
	p := testPool(t, 0)
	prop := func(f fragSpec) bool {
		payload, cuts, off, n := f.normalize()
		c := chainFrom(p, payload, cuts)
		defer c.Release()
		dst := make([]byte, n)
		got := c.GatherRange(off, dst)
		if n > 0 && got != n {
			return false
		}
		return bytes.Equal(dst[:got], payload[off:off+got])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeEmptyChain(t *testing.T) {
	c := testPool(t, 0).NewChain(0)
	defer c.Release()
	calls := 0
	if err := c.Range(0, 0, func(p []byte) { calls++ }); err != nil {
		t.Fatalf("Range on empty chain: %v", err)
	}
	if calls != 0 {
		t.Fatal("Range on empty chain invoked fn")
	}
	if err := c.Range(0, 1, func(p []byte) {}); err == nil {
		t.Fatal("Range past end did not error")
	}
	sub, err := c.SubChain(0, 0)
	if err != nil {
		t.Fatalf("SubChain(0,0) on empty chain: %v", err)
	}
	if sub.Len() != 0 {
		t.Fatal("empty SubChain not empty")
	}
	sub.Release()
}

// TestAppendChainMovesOwnership: the windows move, and the consumed chain
// retires to its own pool, not to the pool of the chain it was appended to.
func TestAppendChainMovesOwnership(t *testing.T) {
	pa := NewPool("dst", DefaultHeadroom, 4, 0)
	pb := NewPool("src", DefaultHeadroom, 3, 0)
	a := pa.GetChain([]byte("hello "))
	b := pb.GetChain([]byte("world"))
	nb := b.NumBufs()
	a.AppendChain(b)
	if a.NumBufs() != 2+nb {
		t.Fatalf("dest has %d bufs", a.NumBufs())
	}
	if string(a.Flatten()) != "hello world" {
		t.Fatalf("payload = %q", a.Flatten())
	}
	// A consumed chain is a retired chain: the struct is back on its pool's
	// list (poisoned in debug mode), exactly as after Release.
	if !b.freed {
		t.Fatal("AppendChain left its argument live")
	}
	if !debugMode {
		if len(pa.chains) != 0 || len(pb.chains) != 1 || pb.chains[0] != b {
			t.Fatalf("consumed chain struct did not return to its own pool (dst list %d, src list %d)",
				len(pa.chains), len(pb.chains))
		}
		got := pb.NewChain(0)
		if got != b {
			t.Fatal("the source pool's next chain is not the consumed struct")
		}
		got.Release()
	}
	a.Release()
	pa.MustBeDrained()
	pb.MustBeDrained()
}

// TestAppendChainConsumedTwice checks the retirement rule's failure mode: a
// second hand-off (or a Release) of a consumed chain is a double free, and
// panics.
func TestAppendChainConsumedTwice(t *testing.T) {
	p := testPool(t, 1)
	a, b := p.NewChain(0), p.GetChain([]byte("x"))
	a.AppendChain(b)
	mustPanic(t, "a second hand-off of a consumed chain", func() { a.AppendChain(b) })
	mustPanic(t, "a Release of a consumed chain", b.Release)
	if a.NumBufs() != 1 {
		t.Fatalf("dest has %d bufs, want 1", a.NumBufs())
	}
	a.Release()
}

func TestAppendChainInvalidatesPartial(t *testing.T) {
	p := testPool(t, 4)
	a := p.GetChain([]byte{1, 2})
	a.SetPartial(PartialOfChain(a))
	b := p.GetChain([]byte{3, 4})
	a.AppendChain(b)
	if _, ok := a.CachedPartial(); ok {
		t.Fatal("AppendChain kept a stale checksum partial")
	}
	a.Release()
}

func BenchmarkGatherRange4K(b *testing.B) {
	payload := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(payload)
	c := testChain(b, payload, DefaultBufSize)
	defer c.Release()
	dst := make([]byte, 4096)
	b.ReportAllocs()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.GatherRange(0, dst)
	}
}

func BenchmarkSubChain32K(b *testing.B) {
	payload := make([]byte, 32*1024)
	c := testChain(b, payload, DefaultBufSize)
	defer c.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := c.SubChain(4096, 4096)
		if err != nil {
			b.Fatal(err)
		}
		sub.Release()
	}
}

func BenchmarkPoolGetChain32K(b *testing.B) {
	p := NewPool("bench", DefaultHeadroom, DefaultBufSize, 0)
	payload := make([]byte, 32*1024)
	b.ReportAllocs()
	b.SetBytes(32 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := p.GetChain(payload)
		c.Release()
	}
}

func BenchmarkRange32K(b *testing.B) {
	payload := make([]byte, 32*1024)
	c := testChain(b, payload, DefaultBufSize)
	defer c.Release()
	b.ReportAllocs()
	b.SetBytes(32 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		_ = c.Range(0, c.Len(), func(p []byte) { total += len(p) })
		if total != 32*1024 {
			b.Fatal("short range")
		}
	}
}
