package netbuf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// chainFrom builds a chain over payload fragmented at the given cut points,
// exercising arbitrary buffer boundaries (including empty buffers).
func chainFrom(payload []byte, cuts []int) *Chain {
	c := NewChain()
	prev := 0
	for _, cut := range cuts {
		if cut < prev {
			cut = prev
		}
		if cut > len(payload) {
			cut = len(payload)
		}
		c.Append(FromBytes(payload[prev:cut]))
		prev = cut
	}
	c.Append(FromBytes(payload[prev:]))
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
	prop := func(f fragSpec) bool {
		payload, cuts, off, n := f.normalize()
		c := chainFrom(payload, cuts)
		defer c.Release()
		var got []byte
		if err := c.Range(off, n, func(p []byte) bool {
			got = append(got, p...)
			return true
		}); err != nil {
			return false
		}
		return bytes.Equal(got, payload[off:off+n])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubChainMatchesFlatReference(t *testing.T) {
	prop := func(f fragSpec) bool {
		payload, cuts, off, n := f.normalize()
		c := chainFrom(payload, cuts)
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
	prop := func(f fragSpec) bool {
		payload, cuts, off, n := f.normalize()
		c := chainFrom(payload, cuts)
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
	c := NewChain()
	calls := 0
	if err := c.Range(0, 0, func(p []byte) bool { calls++; return true }); err != nil {
		t.Fatalf("Range on empty chain: %v", err)
	}
	if calls != 0 {
		t.Fatal("Range on empty chain invoked fn")
	}
	if err := c.Range(0, 1, func(p []byte) bool { return true }); err == nil {
		t.Fatal("Range past end did not error")
	}
	sub, err := c.SubChain(0, 0)
	if err != nil {
		t.Fatalf("SubChain(0,0) on empty chain: %v", err)
	}
	if sub.Len() != 0 {
		t.Fatal("empty SubChain not empty")
	}
}

func TestAppendChainMovesOwnership(t *testing.T) {
	a := ChainFromBytes([]byte("hello "), 4)
	b := ChainFromBytes([]byte("world"), 3)
	nb := b.NumBufs()
	a.AppendChain(b)
	if a.NumBufs() != 2+nb {
		t.Fatalf("dest has %d bufs", a.NumBufs())
	}
	if string(a.Flatten()) != "hello world" {
		t.Fatalf("payload = %q", a.Flatten())
	}
	// A consumed chain is a retired chain: the struct is back on the free
	// list (poisoned in debug mode), exactly as after Release.
	if !b.freed {
		t.Fatal("AppendChain left its argument live")
	}
	if !debugMode {
		if got := NewChain(); got != b {
			t.Fatal("consumed chain struct did not return to the free list")
		} else {
			got.Release()
		}
	}
	a.Release()
}

// TestAppendChainConsumedTwice checks the retirement rule's failure mode: a
// second hand-off (or a Release) of a consumed chain is a double free.
func TestAppendChainConsumedTwice(t *testing.T) {
	if debugMode {
		t.Skip("double frees panic in debug mode (covered by the ownership suite)")
	}
	ResetGlobalDoubleFrees()
	defer ResetGlobalDoubleFrees()
	a, b := NewChain(), ChainFromBytes([]byte("x"), 1)
	a.AppendChain(b)
	a.AppendChain(b)
	b.Release()
	if got := GlobalDoubleFrees(); got != 2 {
		t.Fatalf("GlobalDoubleFrees = %d after re-consuming and releasing a consumed chain, want 2", got)
	}
	if a.NumBufs() != 1 {
		t.Fatalf("dest has %d bufs, want 1", a.NumBufs())
	}
	a.Release()
}

func TestAppendChainInvalidatesPartial(t *testing.T) {
	a := ChainFromBytes([]byte{1, 2}, 4)
	a.SetPartial(PartialOfChain(a))
	b := ChainFromBytes([]byte{3, 4}, 4)
	a.AppendChain(b)
	if _, ok := a.CachedPartial(); ok {
		t.Fatal("AppendChain kept a stale checksum partial")
	}
	a.Release()
}

func BenchmarkGatherRange4K(b *testing.B) {
	payload := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(payload)
	c := ChainFromBytes(payload, DefaultBufSize)
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
	c := ChainFromBytes(payload, DefaultBufSize)
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
	c := ChainFromBytes(payload, DefaultBufSize)
	defer c.Release()
	b.ReportAllocs()
	b.SetBytes(32 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		_ = c.Range(0, c.Len(), func(p []byte) bool {
			total += len(p)
			return true
		})
		if total != 32*1024 {
			b.Fatal("short range")
		}
	}
}
