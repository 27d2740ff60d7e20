package netbuf

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestChainGatherPartial(t *testing.T) {
	c := testChain(t, []byte("abcdefghij"), 4)
	dst := make([]byte, 6)
	if n := c.Gather(dst); n != 6 {
		t.Fatalf("Gather = %d, want 6", n)
	}
	if string(dst) != "abcdef" {
		t.Fatalf("Gather wrote %q", dst)
	}
	c.Release()
}

func TestChainCloneZeroCopy(t *testing.T) {
	c := testChain(t, []byte("shared payload"), 6)
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
	c := testChain(t, src, 7) // bufs: 7,7,6
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
	c.Release()
}

func TestChainSliceOutOfRange(t *testing.T) {
	c := testChain(t, []byte("abc"), 2)
	if _, err := c.SubChain(2, 5); err == nil {
		t.Fatal("out-of-range SubChain succeeded")
	}
	if _, err := c.SubChain(-1, 1); err == nil {
		t.Fatal("negative-offset SubChain succeeded")
	}
	c.Release()
}

func TestChainEqualDifferentBoundaries(t *testing.T) {
	a := testChain(t, []byte("hello world!"), 3)
	b := testChain(t, []byte("hello world!"), 5)
	if !a.Equal(b) {
		t.Fatal("chains with same payload, different boundaries not Equal")
	}
	c := testChain(t, []byte("hello world?"), 5)
	if a.Equal(c) {
		t.Fatal("chains with different payload reported Equal")
	}
	d := testChain(t, []byte("hello world"), 5)
	if a.Equal(d) {
		t.Fatal("chains with different length reported Equal")
	}
	for _, x := range []*Chain{a, b, c, d} {
		x.Release()
	}
}

func TestChainPropertySliceMatchesByteSlice(t *testing.T) {
	f := func(payload []byte, seg uint8, off, n uint16) bool {
		s := int(seg)%64 + 1
		c := testChain(t, payload, s)
		defer c.Release()
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
		defer sl.Release()
		return bytes.Equal(sl.Flatten(), payload[o:o+k])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChainPullHeaderSingleBuf(t *testing.T) {
	c := testChain(t, []byte("HDRpayload"), 1500)
	h := make([]byte, 3)
	if err := c.PullHeaderInto(h); err != nil {
		t.Fatalf("PullHeaderInto: %v", err)
	}
	if string(h) != "HDR" || string(c.Flatten()) != "payload" {
		t.Fatalf("h=%q rest=%q", h, c.Flatten())
	}
	c.Release()
}

func TestChainPullHeaderSkipsEmptyLeaders(t *testing.T) {
	p := testPool(t, 0)
	c := p.ChainOf(p.Get(), testBuf(p, []byte("abcdef")))
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
	c.Release()
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
	sent := p.ChainOf(root)
	c := sent.Clone() // the fragment's aliasing window
	sent.Release()    // sender's ref gone; the clone keeps the root alive
	rest := testPool(t, 0)
	c.Append(testBuf(rest, []byte("rest")))
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
	c := testChain(t, []byte("abcdefghij"), 3)
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
	c.Release()
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
		c := testChain(t, payload, seg)
		if sumChain(c) != Sum(payload) {
			t.Fatalf("sumChain(seg=%d) != Sum(flat)", seg)
		}
		c.Release()
	}
}

func TestChecksumInheritance(t *testing.T) {
	// The NCache trick: payload partial stored once, folded with any header.
	payload := []byte("cached file block contents, never re-walked")
	hdr := []byte{0x45, 0x00, 0x1, 0x2, 0x3, 0x4} // even length
	c := testChain(t, payload, 8)
	pp := PartialOfChain(c)
	c.Release()

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
	c := testChain(t, payload, 8)
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
	c.Append(testBuf(c.pool, []byte("x")))
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
	pulled, err := c.PullChain(2)
	if err != nil {
		t.Fatal(err)
	}
	pulled.Release()
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
		c := testChain(t, data, s)
		defer c.Release()
		return sumChain(c) == Sum(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChainDrainedSliceReturnsToItsClass covers the head-advance and release
// rules: a chain drained by PullHeaderInto / PullChain keeps its slice (the
// head advances by copying the tail down, never by re-slicing from the
// front), and once released that slice goes back to its size class on the
// chain's pool — not with the struct — with no slot still pinning a root.
func TestChainDrainedSliceReturnsToItsClass(t *testing.T) {
	if debugMode {
		t.Skip("nothing is recycled in debug mode")
	}
	pool := NewPool("drain", DefaultHeadroom, 64, 0)
	c := pool.GetChain(make([]byte, 22*64))
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
	if got := len(pool.wins[winClass(22)]); got != 1 {
		t.Fatalf("the pool's class %d holds %d slices, want the released one", winClass(22), got)
	}
	got := pool.NewChain(22)
	if &got.wins[:1][0] != &wins[0] {
		t.Fatal("the released slice did not go back to its class")
	}
	for i, w := range wins {
		if w.root != nil {
			t.Fatalf("slot %d of the recycled slice still pins a root", i)
		}
	}
	got.Release()
	pool.MustBeDrained()
}

// TestChainMixedSizesAllocFree is the size-class gate: a 3-window frame chain
// and a 24-window reassembly chain built one AppendChain at a time have
// interleaved lifetimes — each frame outlives the next round's reassembly,
// the way NCache keeps a captured chain past later frames — and the retired
// frame is released last, so the next reassembly gets the small struct. A
// slice that travelled with its struct then had to regrow on every round;
// with slices recycled by class, nothing is allocated in steady state. The
// pool is new, so the kept frames' structs start as new ones with
// frame-sized slices, as in a fresh process.
func TestChainMixedSizesAllocFree(t *testing.T) {
	if debugMode {
		t.Skip("nothing is recycled in debug mode")
	}
	pool := NewPool("mixed", DefaultHeadroom, 64, 0)
	get := pool.Get
	const kept = 64
	frames := make([]*Chain, kept)
	for i := range frames {
		frames[i] = pool.ChainOf(get(), get(), get())
	}
	next := 0
	round := func() {
		reasm := pool.NewChain(0)
		for range 24 {
			reasm.AppendChain(pool.ChainOf(get()))
		}
		old := frames[next]
		frames[next] = pool.ChainOf(get(), get(), get())
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

// TestChainSmallerClassReplacesAllocFree is the stranded-class gate: retained
// 6-window chains (class 1) are replaced one by one with 3-window chains
// (class 0), as NFS WRITEs replace cached read sub-chains. Every round frees
// a class-1 slice and needs one that holds three windows; taking the
// smallest non-empty class at or above the fitting one, the round reuses the
// freed slice instead of allocating a class-0 slice while class 1 idles.
func TestChainSmallerClassReplacesAllocFree(t *testing.T) {
	if debugMode {
		t.Skip("nothing is recycled in debug mode")
	}
	pool := NewPool("shrink", DefaultHeadroom, 64, 0)
	get := pool.Get
	const kept = 64
	retained := make([]*Chain, kept)
	fill := func() {
		for i := range retained {
			retained[i] = pool.ChainOf(get(), get(), get(), get(), get(), get())
		}
	}
	// Prime: one generation of large chains comes and goes, so the struct
	// list and class 1's list have room for all of them.
	fill()
	for _, c := range retained {
		c.Release()
	}
	fill()
	next := 0
	round := func() {
		old := retained[next]
		old.Release()
		retained[next] = pool.ChainOf(get(), get(), get())
		next++
	}
	if avg := testing.AllocsPerRun(kept-1, round); avg != 0 {
		t.Fatalf("replacing a retained chain with a smaller one allocates %.2f objects per round, want 0", avg)
	}
	for _, c := range retained {
		c.Release()
	}
	pool.MustBeDrained()
}

// TestChainPoolsNeedNoLock builds and releases chains on two pools from two
// goroutines at once, as two clusters do in parallel subtests. Each chain
// recycles on its own pool, so under -race the pair shows that no chain
// state is shared between pools.
func TestChainPoolsNeedNoLock(t *testing.T) {
	var wg sync.WaitGroup
	for i := range 2 {
		pool := NewPool(fmt.Sprintf("lockfree%d", i), DefaultHeadroom, 64, 0)
		get := func() *Buf { return pool.GetSized(64, 0) }
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 500 {
				frame := pool.ChainOf(get(), get(), get())
				reasm := pool.NewChain(0)
				for range 24 {
					reasm.AppendChain(pool.ChainOf(get()))
				}
				reasm.AppendChain(frame.Clone())
				frame.Release()
				sub, err := reasm.SubChain(64, 20*64)
				if err != nil {
					t.Error(err)
					return
				}
				reasm.Release()
				sub.Release()
			}
			pool.MustBeDrained()
		}()
	}
	wg.Wait()
}

// BenchmarkChainCycle is the cost of a chain's life on its pool: get and
// release a 3-window frame chain, and a 24-window reassembly built one
// AppendChain at a time.
func BenchmarkChainCycle(b *testing.B) {
	pool := NewPool("cycle", DefaultHeadroom, 64, 0)
	b.Run("frame3", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			pool.ChainOf(pool.Get(), pool.Get(), pool.Get()).Release()
		}
	})
	b.Run("reasm24", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			reasm := pool.NewChain(0)
			for range 24 {
				reasm.AppendChain(pool.ChainOf(pool.Get()))
			}
			reasm.Release()
		}
	})
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
		frame := pool.ChainOf(hb)
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
	c := testChain(t, make([]byte, 4*1000), 1000)
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
	c := testPool(t, 64).ChainOf(New(DefaultHeadroom, 64))
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

// TestReleaseHeldReleasesOnlyTheHoldersChains: in both modes, ReleaseHeld
// on a pool releases the live chains it built that the given pool's node
// holds — a frame handed over by SetHolder, and a clone of it — and leaves
// those its own node holds and a frame on the wire; in debug mode, where no
// chain struct is recycled, the pool's list of chains stays as short as
// what is live.
func TestReleaseHeldReleasesOnlyTheHoldersChains(t *testing.T) {
	was := DebugEnabled()
	defer SetDebug(was)
	for _, debug := range []bool{false, true} {
		t.Run(fmt.Sprintf("debug=%v", debug), func(t *testing.T) {
			SetDebug(debug)
			a, b := NewPool("a", 0, 64, 0), NewPool("b", 0, 64, 0)
			for i := 0; i < 1000; i++ {
				a.GetChain([]byte("gone")).Release()
			}
			own := a.GetChain([]byte("a holds this"))
			wire := a.GetChain([]byte("on the wire"))
			wire.SetHolder(nil)
			sent := a.GetChain([]byte("b holds this"))
			sent.SetHolder(b)
			clone := sent.Clone()
			a.ReleaseHeld(b)
			if !sent.freed || !clone.freed || own.freed || wire.freed {
				t.Fatalf("ReleaseHeld(b) freed b's frame %v, its clone %v, a's chain %v, the wire's %v; want true, true, false, false",
					sent.freed, clone.freed, own.freed, wire.freed)
			}
			if got := a.Outstanding(); got != 2 {
				t.Fatalf("%d buffers outstanding after ReleaseHeld(b), want 2", got)
			}
			a.ReleaseHeld(a)
			if !own.freed || wire.freed {
				t.Fatalf("ReleaseHeld(a) freed a's chain %v, the wire's %v; want true, false", own.freed, wire.freed)
			}
			if len(a.made) > 8 {
				t.Fatalf("a lists %d chains after 1,000 released ones, want at most 8", len(a.made))
			}
			wire.Release()
		})
	}
}

// TestChainFromBytesSegmentation: a 3,500-byte payload on a pool of
// 1,500-byte buffers is three windows carrying it in order.
func TestChainFromBytesSegmentation(t *testing.T) {
	p := make([]byte, 3500)
	for i := range p {
		p[i] = byte(i)
	}
	c := testChain(t, p, 1500)
	defer c.Release()
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

// TestChainFromBytesEmpty: an empty payload is one empty buffer behind the
// pool's headroom.
func TestChainFromBytesEmpty(t *testing.T) {
	c := testChain(t, nil, 1500)
	defer c.Release()
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	if c.NumBufs() != 1 {
		t.Fatalf("NumBufs = %d, want 1 (an empty buffer)", c.NumBufs())
	}
	if h := int(c.Bufs()[0].head); h != DefaultHeadroom {
		t.Fatalf("empty buffer at %d, want %d", h, DefaultHeadroom)
	}
}
