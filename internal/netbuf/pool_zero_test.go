package netbuf

import "testing"

// TestRecycledBufferExposesNoStaleBytes pins the pool's isolation guarantee:
// a buffer returned to the pool and handed to a new owner must read as zeros
// everywhere the new owner can see — payload window, tailroom exposed by
// Put, and headroom exposed by Push.
func TestRecycledBufferExposesNoStaleBytes(t *testing.T) {
	p := NewPool("zero", 8, 32, 0)

	b, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
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
	nb, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
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

// TestGetDataClearsAroundThePayload: GetData and GetChain overwrite the
// payload window, so the pool clears only around it — and after reuse of a
// fully dirtied buffer every byte outside the new payload still reads zero,
// exactly as in a fresh allocation.
func TestGetDataClearsAroundThePayload(t *testing.T) {
	p := NewPool("around", 8, 32, 0)
	dirty := func() {
		b, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
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
		c, err := p.GetChain(payload)
		if err != nil {
			t.Fatal(err)
		}
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
		b, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
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
		b, err := p.GetData(payload)
		if err != nil {
			t.Fatal(err)
		}
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

// TestGetZeroChainIsZero checks the zero-fill chain constructor end to end
// through a reuse cycle.
func TestGetZeroChainIsZero(t *testing.T) {
	p := NewPool("zc", 0, 16, 0)
	c, err := p.GetChain([]byte{0xFF, 0xFE, 0xFD, 0xFC, 0xFB})
	if err != nil {
		t.Fatal(err)
	}
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
// bit-identical results depend on: GetChain at the pool's buffer size must
// produce the same geometry as ChainFromBytes.
func TestGetChainSegmentsLikeChainFromBytes(t *testing.T) {
	p := NewPool("seg", DefaultHeadroom, DefaultBufSize, 0)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got, err := p.GetChain(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := ChainFromBytes(payload, DefaultBufSize)
	if got.NumBufs() != want.NumBufs() {
		t.Fatalf("NumBufs = %d, want %d", got.NumBufs(), want.NumBufs())
	}
	for i := range got.Bufs() {
		if got.Bufs()[i].Len() != want.Bufs()[i].Len() {
			t.Fatalf("segment %d: len %d, want %d", i, got.Bufs()[i].Len(), want.Bufs()[i].Len())
		}
	}
	if !got.Equal(want) {
		t.Fatal("payload mismatch")
	}
	got.Release()
	want.Release()

	// Empty payload: one empty buffer, like ChainFromBytes.
	empty, err := p.GetChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumBufs() != 1 || empty.Len() != 0 {
		t.Fatalf("empty GetChain: bufs=%d len=%d", empty.NumBufs(), empty.Len())
	}
	empty.Release()
}
