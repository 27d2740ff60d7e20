package netbuf

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestRecycledBufferExposesNoStaleBytes pins the pool's isolation guarantee:
// a buffer returned to the pool and handed to a new owner must read as zeros
// everywhere the new owner can see — payload window, tailroom exposed by
// Put, and headroom exposed by Push.
func TestRecycledBufferExposesNoStaleBytes(t *testing.T) {
	p := NewPool("zero", 8, 32, 0)

	b := p.Get()
	// First owner fills every reachable byte with junk.
	if hdr, err := b.Push(8); err != nil {
		t.Fatal(err)
	} else {
		for i := range hdr {
			hdr[i] = 0xAA
		}
	}
	if err := b.Put(32); err != nil {
		t.Fatal(err)
	}
	for i := range b.Bytes() {
		b.Bytes()[i] = 0xBB
	}
	b.Release()
	if p.Reuses() != 0 {
		t.Fatalf("Reuses = %d before any reuse", p.Reuses())
	}

	// Second owner must see pristine zeros through every window.
	nb := p.Get()
	if nb != b {
		t.Fatal("pool did not recycle the buffer (test needs the same object)")
	}
	if p.Reuses() != 1 {
		t.Fatalf("Reuses = %d, want 1", p.Reuses())
	}
	if err := nb.Put(32); err != nil {
		t.Fatal(err)
	}
	for i, v := range nb.Bytes() {
		if v != 0 {
			t.Fatalf("payload[%d] = %#x leaked from previous owner", i, v)
		}
	}
	hdr, err := nb.Push(8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range hdr {
		if v != 0 {
			t.Fatalf("headroom[%d] = %#x leaked from previous owner", i, v)
		}
	}
	nb.Release()
}

// TestGetChainClearsAroundThePayload: GetChain overwrites the payload
// window, so the pool clears only around it — and after reuse of a
// fully dirtied buffer every byte outside the new payload still reads zero,
// exactly as in a fresh allocation.
func TestGetChainClearsAroundThePayload(t *testing.T) {
	p := NewPool("around", 8, 32, 0)
	dirty := func() {
		b := p.Get()
		for i := range b.backing {
			b.backing[i] = 0xCC
		}
		b.Release()
	}
	for _, n := range []int{0, 5, 32} {
		dirty()
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i + 1)
		}
		c := p.GetChain(payload)
		b := c.Bufs()[0]
		if p.Reuses() == 0 || string(b.Bytes()) != string(payload) {
			t.Fatalf("payload %d: reuses %d, bytes %v", n, p.Reuses(), b.Bytes())
		}
		for i, v := range b.root.backing {
			if (i < 8 || i >= 8+n) && v != 0 {
				t.Fatalf("payload %d: backing[%d] = %#x leaked from the previous owner", n, i, v)
			}
		}
		c.Release()
	}
}

// TestPoolSlabBuffersAreDisjoint: buffers carved from one slab share its
// backing array, so each must be capped at its own bytes — filling one
// buffer's whole backing leaves every other buffer untouched — and a carved
// buffer recycled through Release is cleared around its new payload like any
// other.
func TestPoolSlabBuffersAreDisjoint(t *testing.T) {
	const headroom, size, n = 8, 24, 3 * maxSlab // slabs of 1, 2, 4, ..., 64, 64, ...
	p := NewPool("slab", headroom, size, 0)
	bufs := make([]*Buf, n)
	for i := range bufs {
		b := p.Get()
		if cap(b.backing) != headroom+size || len(b.backing) != headroom+size {
			t.Fatalf("buffer %d: backing len %d cap %d, want %d", i, len(b.backing), cap(b.backing), headroom+size)
		}
		bufs[i] = b
	}
	if p.Allocs() != n || p.Reuses() != 0 {
		t.Fatalf("Allocs %d Reuses %d, want %d carved and none reused", p.Allocs(), p.Reuses(), n)
	}
	for i, b := range bufs {
		for j := range b.backing[:cap(b.backing)] {
			b.backing[j] = byte(i + 1)
		}
	}
	for i, b := range bufs {
		for j, v := range b.backing {
			if v != byte(i+1) {
				t.Fatalf("buffer %d byte %d = %#x: a neighbour's fill reached it", i, j, v)
			}
		}
	}
	for _, b := range bufs {
		b.Release()
	}
	payload := []byte{0xA1, 0xA2, 0xA3, 0xA4, 0xA5}
	for i := range bufs {
		b := p.GetChain(payload).Bufs()[0].root
		if string(b.Bytes()) != string(payload) {
			t.Fatalf("recycled buffer %d payload %v", i, b.Bytes())
		}
		for j, v := range b.backing {
			if (j < headroom || j >= headroom+len(payload)) && v != 0 {
				t.Fatalf("recycled buffer %d: backing[%d] = %#x leaked from the previous owner", i, j, v)
			}
		}
		bufs[i] = b
	}
	if p.Allocs() != n || p.Reuses() != n {
		t.Fatalf("Allocs %d Reuses %d after recycling, want %d each", p.Allocs(), p.Reuses(), n)
	}
	for _, b := range bufs {
		b.Release()
	}
	p.MustBeDrained()
}

// TestPoolSlabWindowSlicesAreDisjoint: window slices carved from one slab
// share its array, so each is capped at its class's size — an append to a
// full one reallocates instead of writing into its slab neighbour — and a
// carved slice that a chain outgrows retires to its class's list.
func TestPoolSlabWindowSlicesAreDisjoint(t *testing.T) {
	p := NewPool("wins", 0, 16, 0)
	// Class 0's first slab holds one slice and its second two, so the
	// second and third chains' slices are neighbours.
	chains := make([]*Chain, 3)
	for i := range chains {
		chains[i] = p.NewChain(minWins)
		for j := 0; j < minWins; j++ {
			chains[i].Append(p.Get())
		}
	}
	c, next := chains[1], chains[2]
	full := c.Bufs()
	if cap(full) != minWins {
		t.Fatalf("carved slice cap %d, want exactly %d", cap(full), minWins)
	}
	end := uintptr(unsafe.Pointer(&full[minWins-1])) + unsafe.Sizeof(Window{})
	if end != uintptr(unsafe.Pointer(&next.Bufs()[0])) {
		t.Fatal("the second and third chains' slices are not slab neighbours")
	}
	want := append([]Window(nil), next.Bufs()...)
	grown := append(full, c.Bufs()[0])
	if &grown[0] == &full[0] {
		t.Fatal("an append to a full carved slice did not reallocate")
	}
	for i, w := range next.Bufs() {
		if w != want[i] {
			t.Fatalf("neighbour window %d changed: an append wrote into the slab", i)
		}
	}
	c.Append(p.Get())
	if cap(c.Bufs()) != 2*minWins {
		t.Fatalf("grown chain slice cap %d, want %d", cap(c.Bufs()), 2*minWins)
	}
	if !DebugEnabled() {
		if len(p.wins[0]) != 1 || cap(p.wins[0][0]) != minWins || &p.wins[0][0][:1][0] != &full[0] {
			t.Fatalf("class 0 holds %d slices: the outgrown carved slice did not retire to it", len(p.wins[0]))
		}
	}
	for _, ch := range chains {
		ch.Release()
	}
	p.MustBeDrained()
}

// TestGetZeroChainIsZero checks the zero-fill chain constructor end to end
// through a reuse cycle.
func TestGetZeroChainIsZero(t *testing.T) {
	p := NewPool("zc", 0, 16, 0)
	c := p.GetChain([]byte{0xFF, 0xFE, 0xFD, 0xFC, 0xFB})
	c.Release()
	z, err := p.GetZeroChain(40)
	if err != nil {
		t.Fatal(err)
	}
	if z.Len() != 40 {
		t.Fatalf("Len = %d, want 40", z.Len())
	}
	for i, v := range z.Flatten() {
		if v != 0 {
			t.Fatalf("zero chain byte %d = %#x", i, v)
		}
	}
	z.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d", p.Outstanding())
	}
}

// TestGetChainSegmentsLikeChainFromBytes pins the segmentation contract the
// bit-identical results depend on: GetChain cuts a payload into full buffers
// of the pool's size, each behind the pool's headroom, and a short last one.
func TestGetChainSegmentsLikeChainFromBytes(t *testing.T) {
	p := testPool(t, DefaultBufSize)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, tc := range []struct {
		n    int
		lens []int
	}{
		{4096, []int{1500, 1500, 1096}},
		{3000, []int{1500, 1500}},
		{1, []int{1}},
	} {
		c := p.GetChain(payload[:tc.n])
		if c.NumBufs() != len(tc.lens) || c.Len() != tc.n {
			t.Fatalf("GetChain(%d bytes): %d windows, %d bytes; want %v", tc.n, c.NumBufs(), c.Len(), tc.lens)
		}
		for i, w := range c.Bufs() {
			if w.Len() != tc.lens[i] || int(w.head) != DefaultHeadroom {
				t.Fatalf("GetChain(%d bytes) window %d: %d bytes at %d, want %d at %d",
					tc.n, i, w.Len(), w.head, tc.lens[i], DefaultHeadroom)
			}
		}
		if !bytes.Equal(c.Flatten(), payload[:tc.n]) {
			t.Fatalf("GetChain(%d bytes): payload mismatch", tc.n)
		}
		c.Release()
	}
}

// TestViewsOfAFilledBuffer: Views cuts a buffer's payload into windows of
// seg bytes and a short last one, aliasing the buffer, and the buffer goes
// back to its pool only when the last window is released, wherever a clone
// of it went. An empty payload is one empty window. GetFill leaves its n
// payload bytes to the filler but zeroes the tail past them.
func TestViewsOfAFilledBuffer(t *testing.T) {
	p := NewPool("ext", 0, 3100, 0)
	b := p.GetFill(3100)
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(i)
	}
	c := b.Views(1500)
	var lens []int
	for _, w := range c.Bufs() {
		if w.root != b {
			t.Fatal("a view does not alias the buffer")
		}
		lens = append(lens, w.Len())
	}
	if len(lens) != 3 || lens[0] != 1500 || lens[1] != 1500 || lens[2] != 100 {
		t.Fatalf("windows %v, want [1500 1500 100]", lens)
	}
	if got := c.Flatten(); got[0] != 0 || got[3099] != byte(3099%256) {
		t.Fatal("views do not carry the payload in order")
	}
	last, err := c.SubChain(3000, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	if p.Outstanding() != 1 {
		t.Fatalf("Outstanding %d with a clone of the last view held, want 1", p.Outstanding())
	}
	last.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding %d after every view is released, want 0", p.Outstanding())
	}

	short := p.GetFill(3000)
	if short != b || short.Len() != 3000 {
		t.Fatalf("GetFill(3000): recycled %v, len %d", short == b, short.Len())
	}
	if short.Bytes()[2999] != byte(2999%256) || short.backing[3000] != 0 {
		t.Fatal("GetFill must leave the filled bytes and zero the tail past them")
	}
	short.Release()

	empty := p.GetFill(0).Views(1500)
	if empty.NumBufs() != 1 || empty.Len() != 0 {
		t.Fatalf("an empty payload gave %d windows of %d bytes, want one empty", empty.NumBufs(), empty.Len())
	}
	empty.Release()
	p.MustBeDrained()
}
