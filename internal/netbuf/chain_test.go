package netbuf

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestChainFromBytesSegmentation(t *testing.T) {
	p := make([]byte, 3500)
	for i := range p {
		p[i] = byte(i)
	}
	c := ChainFromBytes(p, 1500)
	if c.NumBufs() != 3 {
		t.Fatalf("NumBufs = %d, want 3", c.NumBufs())
	}
	if c.Len() != 3500 {
		t.Fatalf("Len = %d, want 3500", c.Len())
	}
	if !bytes.Equal(c.Flatten(), p) {
		t.Fatal("Flatten differs from source")
	}
}

func TestChainFromBytesEmpty(t *testing.T) {
	c := ChainFromBytes(nil, 1500)
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	if c.NumBufs() != 1 {
		t.Fatalf("NumBufs = %d, want 1 (an empty buffer)", c.NumBufs())
	}
}

func TestChainGatherPartial(t *testing.T) {
	c := ChainFromBytes([]byte("abcdefghij"), 4)
	dst := make([]byte, 6)
	if n := c.Gather(dst); n != 6 {
		t.Fatalf("Gather = %d, want 6", n)
	}
	if string(dst) != "abcdef" {
		t.Fatalf("Gather wrote %q", dst)
	}
}

func TestChainCloneZeroCopy(t *testing.T) {
	c := ChainFromBytes([]byte("shared payload"), 6)
	cl := c.Clone()
	if !cl.Equal(c) {
		t.Fatal("clone payload differs")
	}
	// Mutating the original's backing shows through the clone (aliased).
	c.Bufs()[0].Bytes()[0] = 'S'
	if cl.Flatten()[0] != 'S' {
		t.Fatal("chain clone copied payload instead of aliasing")
	}
	cl.Release()
	c.Release()
}

func TestChainSlice(t *testing.T) {
	src := []byte("0123456789abcdefghij")
	c := ChainFromBytes(src, 7) // bufs: 7,7,6
	for _, tc := range []struct{ off, n int }{
		{0, 20}, {0, 7}, {3, 8}, {7, 7}, {13, 7}, {19, 1}, {5, 0}, {0, 0},
	} {
		s, err := c.SubChain(tc.off, tc.n)
		if err != nil {
			t.Fatalf("SubChain(%d,%d): %v", tc.off, tc.n, err)
		}
		if got := s.Flatten(); !bytes.Equal(got, src[tc.off:tc.off+tc.n]) {
			t.Fatalf("SubChain(%d,%d) = %q, want %q", tc.off, tc.n, got, src[tc.off:tc.off+tc.n])
		}
		s.Release()
	}
}

func TestChainSliceOutOfRange(t *testing.T) {
	c := ChainFromBytes([]byte("abc"), 2)
	if _, err := c.SubChain(2, 5); err == nil {
		t.Fatal("out-of-range SubChain succeeded")
	}
	if _, err := c.SubChain(-1, 1); err == nil {
		t.Fatal("negative-offset SubChain succeeded")
	}
}

func TestChainEqualDifferentBoundaries(t *testing.T) {
	a := ChainFromBytes([]byte("hello world!"), 3)
	b := ChainFromBytes([]byte("hello world!"), 5)
	if !a.Equal(b) {
		t.Fatal("chains with same payload, different boundaries not Equal")
	}
	c := ChainFromBytes([]byte("hello world?"), 5)
	if a.Equal(c) {
		t.Fatal("chains with different payload reported Equal")
	}
	d := ChainFromBytes([]byte("hello world"), 5)
	if a.Equal(d) {
		t.Fatal("chains with different length reported Equal")
	}
}

func TestChainPropertySliceMatchesByteSlice(t *testing.T) {
	f := func(payload []byte, seg uint8, off, n uint16) bool {
		s := int(seg)%64 + 1
		c := ChainFromBytes(payload, s)
		o := 0
		if len(payload) > 0 {
			o = int(off) % (len(payload) + 1)
		}
		k := 0
		if len(payload)-o > 0 {
			k = int(n) % (len(payload) - o + 1)
		}
		sl, err := c.SubChain(o, k)
		if err != nil {
			return false
		}
		return bytes.Equal(sl.Flatten(), payload[o:o+k])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChainPullHeaderSingleBuf(t *testing.T) {
	c := ChainFromBytes([]byte("HDRpayload"), 1500)
	h := make([]byte, 3)
	if err := c.PullHeaderInto(h); err != nil {
		t.Fatalf("PullHeaderInto: %v", err)
	}
	if string(h) != "HDR" || string(c.Flatten()) != "payload" {
		t.Fatalf("h=%q rest=%q", h, c.Flatten())
	}
}

func TestChainPullHeaderSkipsEmptyLeaders(t *testing.T) {
	empty := New(32, 0)
	c := ChainOf(empty, FromBytes([]byte("abcdef")))
	h := make([]byte, 4)
	if err := c.PullHeaderInto(h); err != nil {
		t.Fatalf("PullHeaderInto: %v", err)
	}
	if string(h) != "abcd" {
		t.Fatalf("h = %q", h)
	}
	if c.NumBufs() != 1 {
		t.Fatalf("empty leader not compacted: %d bufs", c.NumBufs())
	}
}

// A pull that drains its buffer must leave the caller an owned copy: releasing the
// drained buffer can send its root back to its pool, whose next Get recycles
// the backing array while the caller still holds the header. (This is how a UDP
// header clone from a fragmented datagram gets corrupted: the pull empties
// the 8-byte clone, the release returns the sender's root to its TxPool,
// and the sender reuses the backing for the next frame's headers.)
func TestChainPullHeaderExactDrainCopies(t *testing.T) {
	p := NewPool("t", 32, 64, 0)
	root := p.Get()
	if err := root.Append([]byte("HDRBYTES")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	sent := ChainOf(root)
	c := sent.Clone() // the fragment's aliasing window
	sent.Release()    // sender's ref gone; the clone keeps the root alive
	c.Append(FromBytes([]byte("rest")))
	h := make([]byte, 8)
	if err := c.PullHeaderInto(h); err != nil {
		t.Fatalf("PullHeaderInto: %v", err)
	}
	// The drained window (and so the root) must have been released...
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("root not recycled: %d outstanding", got)
	}
	// ...and recycling the root must not be able to rewrite the header.
	nb := p.Get()
	if err := nb.Append([]byte("XXXXXXXX")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if string(h) != "HDRBYTES" {
		t.Fatalf("header aliases recycled backing: %q", h)
	}
	nb.Release()
	c.Release()
}

func TestChainPullHeaderSpansBuffers(t *testing.T) {
	c := ChainFromBytes([]byte("abcdefghij"), 3)
	h := make([]byte, 7)
	if err := c.PullHeaderInto(h); err != nil {
		t.Fatalf("PullHeaderInto: %v", err)
	}
	if string(h) != "abcdefg" || string(c.Flatten()) != "hij" {
		t.Fatalf("h=%q rest=%q", h, c.Flatten())
	}
	if err := c.PullHeaderInto(make([]byte, 4)); err == nil {
		t.Fatal("PullHeaderInto beyond chain length succeeded")
	}
	if c.Len() != 3 {
		t.Fatalf("failed pull consumed bytes: Len = %d", c.Len())
	}
	h2 := make([]byte, 3)
	if err := c.PullHeaderInto(h2); err != nil || string(h2) != "hij" {
		t.Fatalf("drain: %q, %v", h2, err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after drain", c.Len())
	}
}

func TestChecksumKnownVectors(t *testing.T) {
	// RFC 1071 example: the checksum of this sequence is well known.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	var s Partial
	s.AddBytes(data)
	if got := s.Fold(); got != 0xddf2 {
		t.Fatalf("Fold = %#x, want 0xddf2", got)
	}
	if got := Sum(data); got != ^uint16(0xddf2) {
		t.Fatalf("Sum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddSplit(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7}
	whole := Sum(data)
	for split := 0; split <= len(data); split++ {
		var s Partial
		s.AddBytes(data[:split])
		s.AddBytes(data[split:])
		if s.Checksum() != whole {
			t.Fatalf("split at %d gives %#x, want %#x", split, s.Checksum(), whole)
		}
	}
}

func TestChecksumChainMatchesFlat(t *testing.T) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, seg := range []int{1, 3, 64, 1500, 4096} {
		c := ChainFromBytes(payload, seg)
		if sumChain(c) != Sum(payload) {
			t.Fatalf("sumChain(seg=%d) != Sum(flat)", seg)
		}
	}
}

func TestChecksumInheritance(t *testing.T) {
	// The NCache trick: payload partial stored once, folded with any header.
	payload := []byte("cached file block contents, never re-walked")
	hdr := []byte{0x45, 0x00, 0x1, 0x2, 0x3, 0x4} // even length
	pp := PartialOfChain(ChainFromBytes(payload, 8))

	var hs Partial
	hs.AddBytes(hdr)
	combined := Combine(hs, pp)

	var direct Partial
	direct.AddBytes(hdr)
	direct.AddBytes(payload)
	if combined.Checksum() != direct.Checksum() {
		t.Fatalf("inherited checksum %#x != direct %#x", combined.Checksum(), direct.Checksum())
	}
}

func TestChecksumVerifies(t *testing.T) {
	// Appending the checksum makes the total sum fold to 0xffff.
	data := []byte("verify me please")
	ck := Sum(data)
	var s Partial
	s.AddBytes(data)
	s.AddUint16(ck)
	if s.Fold() != 0xffff {
		t.Fatalf("sum+checksum folds to %#x, want 0xffff", s.Fold())
	}
}

func TestChainCachedPartialLifecycle(t *testing.T) {
	payload := []byte("cached checksum payload!")
	c := ChainFromBytes(payload, 8)
	if _, ok := c.CachedPartial(); ok {
		t.Fatal("fresh chain has a cached partial")
	}
	c.SetPartial(PartialOfChain(c))
	p, ok := c.CachedPartial()
	if !ok {
		t.Fatal("partial not recorded")
	}
	if p.Checksum() != Sum(payload) {
		t.Fatal("recorded partial wrong")
	}
	// Mutations invalidate it.
	c.Append(FromBytes([]byte("x")))
	if _, ok := c.CachedPartial(); ok {
		t.Fatal("Append did not invalidate the partial")
	}
	c.SetPartial(PartialOfChain(c))
	if err := c.PullHeaderInto(make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.CachedPartial(); ok {
		t.Fatal("PullHeaderInto did not invalidate the partial")
	}
	c.SetPartial(PartialOfChain(c))
	if _, err := c.PullChain(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.CachedPartial(); ok {
		t.Fatal("PullChain did not invalidate the partial")
	}
	c.SetPartial(PartialOfChain(c))
	c.Release()
	if _, ok := c.CachedPartial(); ok {
		t.Fatal("Release did not invalidate the partial")
	}
}

func TestChecksumPropertySplitInvariance(t *testing.T) {
	f := func(data []byte, seg uint8) bool {
		s := int(seg)%32 + 1
		return sumChain(ChainFromBytes(data, s)) == Sum(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChainDrainedSliceReturnsToItsClass covers the head-advance and release
// rules: a chain drained by PullHeaderInto / PullChain keeps its slice (the
// head advances by copying the tail down, never by re-slicing from the
// front), and once released that slice goes back to its size class — not
// with the struct — with no slot still pinning a root.
func TestChainDrainedSliceReturnsToItsClass(t *testing.T) {
	if debugMode {
		t.Skip("nothing is recycled in debug mode")
	}
	payload := make([]byte, 22*64)
	c := ChainFromBytes(payload, 64)
	wins := c.wins[:cap(c.wins)]
	if len(wins) != minWins<<winClass(22) {
		t.Fatalf("a 22-window chain has capacity %d, want its class's %d", len(wins), minWins<<winClass(22))
	}
	if err := c.PullHeaderInto(make([]byte, 64)); err != nil { // drains buffer 0 exactly
		t.Fatal(err)
	}
	head, err := c.PullChain(10*64 + 7) // ten whole buffers and a split one
	if err != nil {
		t.Fatal(err)
	}
	if head.Len() != 10*64+7 || c.Len() != 11*64-7 {
		t.Fatalf("pulled %d, left %d", head.Len(), c.Len())
	}
	if &c.wins[:1][0] != &wins[0] || cap(c.wins) != len(wins) {
		t.Fatalf("head pulls changed the slice (capacity %d, want %d)", cap(c.wins), len(wins))
	}
	rest, err := c.PullChain(c.Len()) // to empty
	if err != nil {
		t.Fatal(err)
	}
	head.Release()
	rest.Release()
	c.Release()
	if c.wins != nil {
		t.Fatal("a released chain's struct kept its slice")
	}
	got := NewChainCap(22)
	if &got.wins[:1][0] != &wins[0] {
		t.Fatal("the released slice did not go back to its class")
	}
	for i, w := range wins {
		if w.root != nil {
			t.Fatalf("slot %d of the recycled slice still pins a root", i)
		}
	}
	got.Release()
}

// TestChainMixedSizesAllocFree is the size-class gate: a 3-window frame chain
// and a 24-window reassembly chain built one AppendChain at a time have
// interleaved lifetimes — each frame outlives the next round's reassembly,
// the way NCache keeps a captured chain past later frames — and the retired
// frame is released last, so the next reassembly gets the small struct. A
// slice that travelled with its struct then had to regrow on every round;
// with slices recycled by class, nothing is allocated in steady state.
func TestChainMixedSizesAllocFree(t *testing.T) {
	if debugMode {
		t.Skip("nothing is recycled in debug mode")
	}
	pool := NewPool("mixed", DefaultHeadroom, 64, 0)
	get := func() *Buf {
		b := pool.Get()
		return b
	}
	// Start, as a fresh process does, from an empty struct list, so the kept
	// frames' structs are new ones with frame-sized slices.
	chainMu.Lock()
	chainFree = nil
	chainMu.Unlock()
	const kept = 64
	frames := make([]*Chain, kept)
	for i := range frames {
		frames[i] = ChainOf(get(), get(), get())
	}
	next := 0
	round := func() {
		reasm := NewChain()
		for range 24 {
			reasm.AppendChain(ChainOf(get()))
		}
		old := frames[next]
		frames[next] = ChainOf(get(), get(), get())
		next = (next + 1) % kept
		if reasm.NumBufs() != 24 {
			t.Fatalf("reassembly has %d windows, want 24", reasm.NumBufs())
		}
		reasm.Release()
		old.Release()
	}
	round()
	if avg := testing.AllocsPerRun(kept, round); avg != 0 {
		t.Fatalf("steady-state mixed-size chains allocate %.0f objects per round, want 0", avg)
	}
	for _, f := range frames {
		f.Release()
	}
	pool.MustBeDrained()
}

// TestChainHandOffAllocFree is the allocation gate for the chain lifecycle:
// once the free lists are primed, carving a 22-buffer payload (SubChain),
// framing it (ChainOf + AppendChain), cloning it for the wire and releasing
// everything allocates nothing — chain structs and their window slices come
// back from where the previous round retired them, and windows are values.
func TestChainHandOffAllocFree(t *testing.T) {
	if debugMode {
		t.Skip("nothing is recycled in debug mode")
	}
	pool := NewPool("handoff", DefaultHeadroom, DefaultBufSize, 0)
	cached := pool.GetChain(make([]byte, 22*DefaultBufSize))
	defer cached.Release()
	round := func() {
		payload, err := cached.SubChain(0, cached.Len())
		if err != nil {
			t.Fatal(err)
		}
		hb := pool.Get()
		frame := ChainOf(hb)
		frame.AppendChain(payload)
		wire := frame.Clone()
		frame.Release()
		if err := wire.PullHeaderInto(nil); err != nil { // compacts the empty header
			t.Fatal(err)
		}
		body, err := wire.PullChain(wire.Len())
		if err != nil {
			t.Fatal(err)
		}
		wire.Release()
		body.Release()
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("steady-state chain hand-off allocates %.0f objects per round, want 0", avg)
	}
	if pool.Outstanding() != 22 {
		t.Fatalf("pool outstanding %d, want the 22 cached buffers", pool.Outstanding())
	}
}

// TestRetainedSubChainAllocBudget: a sub-chain kept past the call — what NCache
// holds per cached block — costs a chain struct and its window slice,
// however many buffers it spans. Windows are values, so nothing is allocated
// per buffer.
func TestRetainedSubChainAllocBudget(t *testing.T) {
	c := ChainFromBytes(make([]byte, 4*1000), 1000)
	defer c.Release()
	const runs = 2000
	kept := make([]*Chain, 0, runs+1)
	avg := testing.AllocsPerRun(runs, func() {
		sub, err := c.SubChain(500, 3000) // half, whole, whole, half
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, sub)
	})
	if kept[0].NumBufs() != 4 {
		t.Fatalf("sub-chain spans %d windows, want 4", kept[0].NumBufs())
	}
	for _, sub := range kept {
		sub.Release()
	}
	if avg > 2 {
		t.Fatalf("a retained 4-window sub-chain allocates %.0f objects, want at most 2 (chain and slice)", avg)
	}
}

// TestPushIntoSharedBackingPanicsInDebug: a header is pushed only into
// backing no other window references. Under debug mode a push into a window
// whose root another chain shares panics; an unshared root takes the push.
func TestPushIntoSharedBackingPanicsInDebug(t *testing.T) {
	was := DebugEnabled()
	SetDebug(true)
	defer SetDebug(was)
	c := ChainOf(New(DefaultHeadroom, 64))
	if _, err := c.PushFront(8); err != nil {
		t.Fatalf("push into an unshared root: %v", err)
	}
	cl := c.Clone()
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "shared backing") {
			t.Errorf("push into shared backing: recovered %v, want a panic naming shared backing", p)
		}
		cl.Release()
		c.Release()
	}()
	_, _ = cl.PushFront(8)
}
