package buffercache

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ncache/internal/lkey"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// fakeLower is an in-memory block store that records traffic and optionally
// rewrites payloads (to emulate the NCache/baseline hooks).
type fakeLower struct {
	eng     *sim.Engine
	pool    *netbuf.Pool // the chains reads return are built on it
	bs      int
	blocks  map[int64][]byte
	reads   []fakeReq
	writes  []fakeReq
	readFn  func(lbn int64, count int) *netbuf.Chain // optional override
	latency sim.Duration
}

type fakeReq struct {
	lbn   int64
	count int
	meta  bool
	data  []byte
}

func newFakeLower(eng *sim.Engine, pool *netbuf.Pool, bs int) *fakeLower {
	return &fakeLower{eng: eng, pool: pool, bs: bs, blocks: map[int64][]byte{}, latency: 10 * sim.Microsecond}
}

func (f *fakeLower) BlockSize() int { return f.bs }

func (f *fakeLower) content(lbn int64) []byte {
	if b, ok := f.blocks[lbn]; ok {
		return b
	}
	out := make([]byte, f.bs)
	for i := range out {
		out[i] = byte(lbn*13 + int64(i)%251)
	}
	return out
}

func (f *fakeLower) ReadAt(lbn int64, count int, meta bool, done func(*netbuf.Chain, error)) {
	f.reads = append(f.reads, fakeReq{lbn: lbn, count: count, meta: meta})
	f.eng.Schedule(f.latency, func() {
		if f.readFn != nil {
			done(f.readFn(lbn, count), nil)
			return
		}
		buf := make([]byte, 0, count*f.bs)
		for j := 0; j < count; j++ {
			buf = append(buf, f.content(lbn+int64(j))...)
		}
		done(f.pool.GetChain(buf), nil)
	})
}

func (f *fakeLower) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	flat := data.Flatten()
	data.Release()
	f.writes = append(f.writes, fakeReq{lbn: lbn, count: len(flat) / f.bs, meta: meta, data: flat})
	f.eng.Schedule(f.latency, func() {
		for j := 0; j*f.bs < len(flat); j++ {
			b := make([]byte, f.bs)
			copy(b, flat[j*f.bs:])
			f.blocks[lbn+int64(j)] = b
		}
		done(nil)
	})
}

func rigCache(t *testing.T, capacity int) (*sim.Engine, *simnet.Node, *fakeLower, *Cache) {
	t.Helper()
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	lower := newFakeLower(eng, node.TxPool, 4096)
	return eng, node, lower, New(node, lower, capacity)
}

func TestMissThenHit(t *testing.T) {
	eng, node, lower, c := rigCache(t, 16)
	var first, second []byte
	c.Get(5, false, func(b *Block, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		first = append([]byte(nil), b.Data...)
		c.Unpin(b)
		c.Get(5, false, func(b2 *Block, err error) {
			if err != nil {
				t.Errorf("Get2: %v", err)
				return
			}
			second = append([]byte(nil), b2.Data...)
			c.Unpin(b2)
		})
	})
	eng.Run()
	if !bytes.Equal(first, lower.content(5)) {
		t.Fatal("miss returned wrong content")
	}
	if !bytes.Equal(second, first) {
		t.Fatal("hit returned different content")
	}
	if len(lower.reads) != 1 {
		t.Fatalf("lower reads = %d, want 1", len(lower.reads))
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	// The miss fill charged one physical copy of one block.
	if node.Copies.PhysicalOps != 1 || node.Copies.PhysicalBytes != 4096 {
		t.Fatalf("copies = %+v", node.Copies)
	}
}

func TestRangeCoalescesMissRuns(t *testing.T) {
	eng, _, lower, c := rigCache(t, 64)
	// Pre-populate block 12 so the range 10..17 has a hole in the middle.
	c.Get(12, false, func(b *Block, err error) {
		if err == nil {
			c.Unpin(b)
		}
	})
	eng.Run()
	lower.reads = nil

	var got [][]byte
	bs := make([]*Block, 8)
	c.GetRange(10, bs, false, func(err error) {
		if err != nil {
			t.Errorf("GetRange: %v", err)
			return
		}
		for _, b := range bs {
			got = append(got, append([]byte(nil), b.Data...))
			c.Unpin(b)
		}
	})
	eng.Run()
	if len(got) != 8 {
		t.Fatalf("blocks = %d", len(got))
	}
	for j := 0; j < 8; j++ {
		if !bytes.Equal(got[j], lower.content(10+int64(j))) {
			t.Fatalf("block %d content wrong", j)
		}
	}
	// Two lower reads: [10,12) and [13,18).
	if len(lower.reads) != 2 {
		t.Fatalf("lower reads = %d (%+v), want 2 coalesced runs", len(lower.reads), lower.reads)
	}
}

func TestConcurrentMissesCoalesce(t *testing.T) {
	eng, _, lower, c := rigCache(t, 16)
	done := 0
	for k := 0; k < 3; k++ {
		c.Get(7, false, func(b *Block, err error) {
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if !bytes.Equal(b.Data, lower.content(7)) {
				t.Error("content wrong")
			}
			c.Unpin(b)
			done++
		})
	}
	eng.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if len(lower.reads) != 1 {
		t.Fatalf("lower reads = %d, want 1 (in-flight coalescing)", len(lower.reads))
	}
}

func TestWriteBackOnEviction(t *testing.T) {
	eng, _, lower, c := rigCache(t, 4)
	// Dirty one block, then flood the cache to force eviction.
	c.GetForWrite(100, false, func(b *Block, err error) {
		if err != nil {
			t.Errorf("GetForWrite: %v", err)
			return
		}
		copy(c.Page(b), bytes.Repeat([]byte{0xEE}, 4096))
		c.MarkDirty(b)
		c.Unpin(b)
	})
	eng.Run()
	for i := int64(0); i < 8; i++ {
		c.Get(i, false, func(b *Block, err error) {
			if err == nil {
				c.Unpin(b)
			}
		})
	}
	eng.Run()
	if len(lower.writes) != 1 {
		t.Fatalf("writes = %d, want 1 (dirty eviction)", len(lower.writes))
	}
	if lower.writes[0].lbn != 100 {
		t.Fatalf("wrote lbn %d", lower.writes[0].lbn)
	}
	if !bytes.Equal(lower.blocks[100], bytes.Repeat([]byte{0xEE}, 4096)) {
		t.Fatal("written content wrong")
	}
	if len(c.blocks) > 4 {
		t.Fatalf("cache exceeded capacity: %d", len(c.blocks))
	}
}

func TestSyncFlushesAllDirty(t *testing.T) {
	eng, _, lower, c := rigCache(t, 16)
	for i := int64(0); i < 5; i++ {
		i := i
		c.GetForWrite(i, false, func(b *Block, err error) {
			if err != nil {
				t.Errorf("GetForWrite: %v", err)
				return
			}
			c.Page(b)[0] = byte(i + 1)
			c.MarkDirty(b)
			c.Unpin(b)
		})
	}
	synced := false
	eng.Run()
	c.Sync(func(err error) {
		if err != nil {
			t.Errorf("Sync: %v", err)
		}
		synced = true
	})
	eng.Run()
	if !synced {
		t.Fatal("Sync did not complete")
	}
	// The five adjacent dirty LBNs must coalesce into one scatter-gather
	// write (the batched flusher), not five per-block I/Os.
	if len(lower.writes) != 1 {
		t.Fatalf("writes = %d, want 1 coalesced batch", len(lower.writes))
	}
	if w := lower.writes[0]; w.lbn != 0 || w.count != 5 {
		t.Fatalf("batch = lbn %d count %d, want lbn 0 count 5", w.lbn, w.count)
	}
	for i := int64(0); i < 5; i++ {
		if got := lower.blocks[i][0]; got != byte(i+1) {
			t.Fatalf("block %d content = %#x, want %#x", i, got, byte(i+1))
		}
	}
	if c.nDirty != 0 {
		t.Fatalf("dirty after sync = %d", c.nDirty)
	}
}

func TestLogicalBlockFillIsKeyCopy(t *testing.T) {
	eng, node, lower, c := rigCache(t, 16)
	// Lower returns key-stamped junk, as the NCache read hook produces.
	lower.readFn = func(lbn int64, count int) *netbuf.Chain {
		out := lower.pool.NewChain(0)
		for j := 0; j < count; j++ {
			out.AppendChain(lkey.StampChainPool(node.BlkPool, lkey.ForLBN(lbn+int64(j)), 4096))
		}
		return out
	}
	var gotKey lkey.Key
	c.Get(42, false, func(b *Block, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		if !b.Logical {
			t.Error("block not logical")
		}
		gotKey = b.Key
		c.Unpin(b)
	})
	eng.Run()
	if gotKey.LBN != 42 || gotKey.Flags&lkey.HasLBN == 0 {
		t.Fatalf("key = %+v", gotKey)
	}
	if node.Copies.PhysicalOps != 0 {
		t.Fatalf("logical fill performed %d physical copies", node.Copies.PhysicalOps)
	}
	if node.Copies.LogicalOps != 1 {
		t.Fatalf("logical ops = %d, want 1", node.Copies.LogicalOps)
	}
}

func TestLogicalDirtyFlushTravelsAsKeyAndRemaps(t *testing.T) {
	eng, node, lower, c := rigCache(t, 16)
	fh := lkey.FH{1, 2, 3}
	c.GetForWrite(200, false, func(b *Block, err error) {
		if err != nil {
			t.Errorf("GetForWrite: %v", err)
			return
		}
		c.SetKey(b, lkey.ForFHO(fh, 8192))
		c.MarkDirty(b)
		c.Unpin(b)
	})
	eng.Run()
	synced := false
	physBefore := node.Copies.PhysicalOps
	c.Sync(func(err error) { synced = err == nil })
	eng.Run()
	if !synced {
		t.Fatal("sync failed")
	}
	if node.Copies.PhysicalOps != physBefore {
		t.Fatal("logical flush physically copied the block")
	}
	// The wire payload was the stamped key.
	if m := lkey.ForFHO(fh, 8192).Marshal(); !bytes.Equal(lower.writes[0].data[:lkey.Size], m[:]) {
		t.Fatalf("flushed payload %x, want the key %x", lower.writes[0].data[:lkey.Size], m)
	}
	// After the flush, the resident block's key gained the LBN identity.
	b, ok := c.blocks[200]
	if !ok {
		t.Fatal("block evicted unexpectedly")
	}
	k2 := b.Key
	if k2.Flags&lkey.HasLBN == 0 || k2.LBN != 200 || k2.Flags&lkey.HasFHO == 0 {
		t.Fatalf("post-flush key = %+v, want dual identity", k2)
	}
}

func TestPinnedBlocksSurviveEvictionPressure(t *testing.T) {
	eng, _, _, c := rigCache(t, 2)
	var pinned *Block
	c.Get(1, false, func(b *Block, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		pinned = b // deliberately not unpinned
	})
	eng.Run()
	for i := int64(10); i < 20; i++ {
		c.Get(i, false, func(b *Block, err error) {
			if err == nil {
				c.Unpin(b)
			}
		})
	}
	eng.Run()
	if _, ok := c.blocks[1]; !ok {
		t.Fatal("pinned block was evicted")
	}
	c.Unpin(pinned)
}

func TestGetForWriteSkipsLowerRead(t *testing.T) {
	eng, _, lower, c := rigCache(t, 8)
	c.GetForWrite(77, false, func(b *Block, err error) {
		if err != nil {
			t.Errorf("GetForWrite: %v", err)
			return
		}
		c.Unpin(b)
	})
	eng.Run()
	if len(lower.reads) != 0 {
		t.Fatalf("no-fill write performed %d lower reads", len(lower.reads))
	}
}

func TestLowerWriteFailurePropagates(t *testing.T) {
	eng, _, lower, c := rigCache(t, 16)
	failWrite := false
	lowerErr := &failingLower{fakeLower: lower, failWrites: &failWrite}
	c2 := New(simnetNode(eng), lowerErr, 16)
	c2.GetForWrite(3, false, func(b *Block, err error) {
		if err != nil {
			t.Fatalf("GetForWrite: %v", err)
		}
		c2.Page(b)[0] = 1
		c2.MarkDirty(b)
		c2.Unpin(b)
	})
	eng.Run()
	failWrite = true
	var syncErr error
	c2.Sync(func(err error) { syncErr = err })
	eng.Run()
	if syncErr == nil {
		t.Fatal("Sync swallowed the lower-write failure")
	}
	// The block stays dirty so data is not lost.
	if c2.nDirty != 1 {
		t.Fatalf("dirty = %d, want 1 (retryable)", c2.nDirty)
	}
	_ = c
}

type failingLower struct {
	*fakeLower
	failWrites *bool
}

func (f *failingLower) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	if *f.failWrites {
		data.Release()
		f.eng.Schedule(1, func() { done(errInjected) })
		return
	}
	f.fakeLower.WriteAt(lbn, data, meta, done)
}

var errInjected = errors.New("injected write failure")

// simnetNode builds a bare node for auxiliary caches in this test file.
func simnetNode(eng *sim.Engine) *simnet.Node {
	return simnet.NewNode(eng, "aux", simnet.DefaultProfile())
}

func TestGetRangeRejectsBadCount(t *testing.T) {
	eng, _, _, c := rigCache(t, 8)
	called := false
	c.GetRange(0, nil, false, func(err error) {
		called = true
		if err == nil {
			t.Fatal("empty range accepted")
		}
	})
	eng.Run()
	if !called {
		t.Fatal("callback not invoked")
	}
}

func TestDropInvalidates(t *testing.T) {
	eng, _, lower, c := rigCache(t, 8)
	c.Get(3, false, func(b *Block, err error) {
		if err == nil {
			c.Unpin(b)
		}
	})
	eng.Run()
	c.Drop(3)
	lower.reads = nil
	c.Get(3, false, func(b *Block, err error) {
		if err == nil {
			c.Unpin(b)
		}
	})
	eng.Run()
	if len(lower.reads) != 1 {
		t.Fatalf("re-read after Drop = %d lower reads, want 1", len(lower.reads))
	}
}

// TestCacheGetResidentZeroAllocs gates the resident-hit fast path: returning
// a block that is already in the map pins it, counts the hit, touches the
// LRU, calls done and runs eviction — and allocates nothing; nor does a
// resident range, which lands in the caller's slice.
func TestCacheGetResidentZeroAllocs(t *testing.T) {
	eng, _, lower, c := rigCache(t, 16)
	bs := make([]*Block, 4)
	c.GetRange(8, bs, false, func(err error) {
		if err != nil {
			t.Errorf("prefill: %v", err)
		}
		for _, b := range bs {
			c.Unpin(b)
		}
	})
	eng.Run()
	var got *Block
	one := func(b *Block, err error) { got = b; c.Unpin(b) }
	if avg := testing.AllocsPerRun(200, func() { c.Get(9, false, one) }); avg != 0 {
		t.Errorf("resident Get allocates %.0f objects, want 0", avg)
	}
	if got == nil || got.LBN != 9 || got.pins != 0 {
		t.Fatalf("Get returned %+v", got)
	}
	n := 0
	many := func(err error) {
		n = len(bs)
		for _, b := range bs {
			c.Unpin(b)
		}
	}
	if avg := testing.AllocsPerRun(200, func() { c.GetRange(8, bs, false, many) }); avg != 0 {
		t.Errorf("resident GetRange allocates %.0f objects, want 0", avg)
	}
	if n != 4 {
		t.Fatalf("GetRange returned %d blocks", n)
	}
	// Same accounting as the slow path: one hit per block per call, LRU
	// order updated, nothing re-read.
	if want := uint64(201 + 4*201); c.Stats.Hits != want || c.Stats.Misses != 4 || len(lower.reads) != 1 {
		t.Fatalf("hits %d (want %d), misses %d, lower reads %d", c.Stats.Hits, want, c.Stats.Misses, len(lower.reads))
	}
	if front := c.lru.next; front.LBN != 11 {
		t.Fatalf("MRU block is %d, want 11 (last touched by the range)", front.LBN)
	}
}

// TestCacheEvictInsertZeroAllocs gates steady-state churn: once the cache
// is full, bringing in a new block evicts a clean one and reuses it —
// block and LRU link together; a data block gets no page until written —
// so the pair allocates nothing.
func TestCacheEvictInsertZeroAllocs(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	_, _, _, c := rigCache(t, 8)
	next := int64(0)
	unpin := func(b *Block, err error) { c.Unpin(b) }
	churn := func() {
		c.GetForWrite(next, false, unpin)
		next++
	}
	for i := 0; i < 16; i++ {
		churn() // fill, then prime the free list
	}
	if avg := testing.AllocsPerRun(500, churn); avg != 0 {
		t.Errorf("evict+insert allocates %.1f objects, want 0", avg)
	}
	if len(c.blocks) != 8 || c.Stats.Evictions == 0 {
		t.Fatalf("len %d, evictions %d", len(c.blocks), c.Stats.Evictions)
	}
}

// TestRecycledBlockLooksFresh: an evicted block comes back from the next
// insert with no page and no trace of its previous life, and a page handed
// back comes back from the next Page zeroed, while a block somebody may still
// refer to — dropped mid-flush — is reused only once its write lands.
func TestRecycledBlockLooksFresh(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, _, _, c := rigCache(t, 2)
	var old *Block
	var oldPage []byte
	c.GetForWrite(1, true, func(b *Block, err error) {
		old, oldPage = b, c.Page(b)
		for i := range oldPage {
			oldPage[i] = 0xAB
		}
		c.SetKey(b, lkey.ForLBN(1))
		c.Unpin(b)
	})
	for lbn := int64(2); lbn <= 3; lbn++ { // push block 1 out
		c.GetForWrite(lbn, false, func(b *Block, err error) { c.Unpin(b) })
	}
	if len(c.free) != 1 || c.free[0] != old {
		t.Fatalf("evicted block not on the free list (%d entries)", len(c.free))
	}
	if len(c.pages) != 1 || &c.pages[0][0] != &oldPage[0] {
		t.Fatalf("SetKey did not hand the page back (%d pages listed)", len(c.pages))
	}
	c.GetForWrite(9, false, func(b *Block, err error) {
		if b != old {
			t.Error("insert did not reuse the evicted block")
		}
		if b.LBN != 9 || b.Meta || b.Logical || b.Key != (lkey.Key{}) || b.Dirty || b.pins != 1 || b.Data != nil {
			t.Errorf("recycled block carries its previous life: %+v", b)
		}
		if p := c.Page(b); &p[0] != &oldPage[0] || !bytes.Equal(p, make([]byte, 4096)) {
			t.Error("Page did not hand back the listed page zeroed")
		}
		c.Unpin(b)
	})

	// A block dropped while its write-back is in flight stays with that
	// write's completion, which reclaims it and its page once it lands.
	var flushing *Block
	c.GetForWrite(20, false, func(b *Block, err error) {
		flushing = b
		c.MarkDirty(b)
		c.Unpin(b)
	})
	c.Sync(func(error) {})
	free, pages, page := len(c.free), len(c.pages), flushing.Data
	if !c.Drop(20) || len(c.free) != free {
		t.Fatal("a mid-flush block was recycled by Drop")
	}
	eng.Run()
	if len(c.free) != free+1 || c.free[free] != flushing {
		t.Fatal("a block dropped mid-flush was not reclaimed when its write landed")
	}
	if len(c.pages) != pages+1 || &c.pages[pages][0] != &page[0] {
		t.Fatal("a block dropped mid-flush did not hand its page back")
	}
	// A clean, idle one is recycled by Drop.
	if resident := c.blocks[9]; !c.Drop(9) || c.free[len(c.free)-1] != resident {
		t.Fatal("Drop of a clean block did not recycle it")
	}
}

// TestFailedReadRecyclesBlock: a block whose fill fails is dropped, handed
// to no caller, and reclaimed by the last pin that let go of it — a
// GetForWrite caller parked on the fill hears the error with a nil block
// and keeps no pin.
func TestFailedReadRecyclesBlock(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, node, lower, _ := rigCache(t, 8)
	c := New(node, &failingReader{lower}, 8)
	failed := 0
	c.Get(5, true, func(b *Block, err error) {
		if b != nil || err == nil {
			t.Errorf("failed Get = %v, %v: want nil and the error", b, err)
		}
		failed++
	})
	orphan := c.blocks[5]
	c.GetForWrite(5, true, func(b *Block, err error) {
		if b != nil || err == nil {
			t.Errorf("GetForWrite parked on a failed fill = %v, %v: want nil and the error", b, err)
		}
		failed++
	})
	eng.Run()
	if failed != 2 {
		t.Fatalf("%d of 2 callers heard the failure", failed)
	}
	if _, ok := c.blocks[5]; ok || len(c.free) != 1 || c.free[0] != orphan || orphan.pins != 0 {
		t.Fatalf("the failed block was not reclaimed: resident %v, %d free, %d pins", ok, len(c.free), orphan.pins)
	}
	if len(c.pages) != 1 || orphan.Data != nil {
		t.Fatal("the failed metadata block did not hand its page back")
	}
}

// failingReader fails every read after the lower store's latency.
type failingReader struct{ *fakeLower }

func (f *failingReader) ReadAt(lbn int64, count int, meta bool, done func(*netbuf.Chain, error)) {
	f.eng.Schedule(f.latency, func() { done(nil, errInjected) })
}

// TestBlockRecycledTwicePanics: recycling a block that is already on the
// free list reaches FreeList.Put and panics, in either mode, and leaves the
// resident blocks alone (block 0 is the superblock's).
func TestBlockRecycledTwicePanics(t *testing.T) {
	_, _, _, c := rigCache(t, 4)
	var b *Block
	for lbn := int64(0); lbn <= 5; lbn += 5 {
		c.GetForWrite(lbn, false, func(got *Block, err error) {
			b = got
			c.Page(got)[0] = 1
			c.Unpin(got)
		})
	}
	c.recycle(b)
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "retired twice") {
			t.Errorf("second recycle: recovered %v, want a panic mentioning \"retired twice\"", p)
		}
		if _, ok := c.blocks[0]; !ok {
			t.Error("second recycle evicted block 0")
		}
	}()
	c.recycle(b)
}

// TestDebugModePoisonsEvictedBlocks: under netbuf debug mode an evicted
// block is poisoned and abandoned instead of recycled, so a reader that
// kept the pointer past its Unpin sees poison, not the next block's bytes.
func TestDebugModePoisonsEvictedBlocks(t *testing.T) {
	was := netbuf.DebugEnabled()
	netbuf.SetDebug(true)
	defer netbuf.SetDebug(was)
	_, _, _, c := rigCache(t, 1)
	var stale *Block
	var stalePage []byte
	c.GetForWrite(1, false, func(b *Block, err error) {
		stale, stalePage = b, c.Page(b)
		stalePage[0] = 7
		c.Unpin(b)
	})
	c.GetForWrite(2, false, func(b *Block, err error) {
		if b == stale {
			t.Error("debug mode recycled an evicted block")
		}
		c.Unpin(b)
	})
	if len(c.free) != 0 || len(c.pages) != 0 || stalePage[0] == 7 || stalePage[0] != stalePage[4095] {
		t.Fatalf("evicted block not poisoned: free %d, pages %d, data %#x..%#x", len(c.free), len(c.pages), stalePage[0], stalePage[4095])
	}
}

// pagelessIfLogical fails unless every resident logical block and every
// recycled block has no page: a logical block's bytes are its key's.
func pagelessIfLogical(t *testing.T, c *Cache, after string) {
	t.Helper()
	for b := c.lru.next; b != &c.lru; b = b.next {
		if b.Logical && b.Data != nil {
			t.Errorf("after %s: logical block %d holds a page", after, b.LBN)
		}
	}
	for _, b := range c.free {
		if b.Data != nil {
			t.Errorf("after %s: recycled block keeps a page", after)
		}
	}
}

// TestPageRecycleContract: a block holds a page only while it holds real
// bytes (Logical ⇒ Data == nil), whether a fill, an FHO write's SetKey or
// recycling made it so. SetKey hands the page to the page list, the next
// Page takes the same page back zeroed, and Page on a block with no page
// gives BlockSize zeros and makes the block physical. In debug mode a page
// handed back is poisoned and abandoned, never handed out again.
func TestPageRecycleContract(t *testing.T) {
	recycles := !netbuf.DebugEnabled()
	eng, node, lower, c := rigCache(t, 2)
	lower.readFn = func(lbn int64, count int) *netbuf.Chain {
		out := lower.pool.NewChain(0)
		for j := 0; j < count; j++ {
			out.AppendChain(lkey.StampChainPool(node.BlkPool, lkey.ForLBN(lbn+int64(j)), 4096))
		}
		return out
	}
	var b *Block
	c.Get(42, false, func(got *Block, err error) { b = got }) // stays pinned
	eng.Run()
	if !b.Logical || b.Data != nil {
		t.Fatalf("logical fill: Logical %v, page of %d bytes", b.Logical, len(b.Data))
	}
	pagelessIfLogical(t, c, "a logical fill")

	zeros := make([]byte, 4096)
	if p := c.Page(b); !bytes.Equal(p, zeros) || b.Logical || b.Key != (lkey.Key{}) {
		t.Fatalf("Page on a pageless logical block: %d bytes, zero %v, Logical %v", len(p), bytes.Equal(p, zeros), b.Logical)
	}
	pagelessIfLogical(t, c, "materialization")

	page := b.Data
	for i := range page {
		page[i] = 0xCD
	}
	c.SetKey(b, lkey.ForFHO(lkey.FH{4}, 0))
	if b.Data != nil || !b.Logical || b.Key != lkey.ForFHO(lkey.FH{4}, 0) {
		t.Fatalf("SetKey left Logical %v, page of %d bytes, key %+v", b.Logical, len(b.Data), b.Key)
	}
	if recycles && (len(c.pages) != 1 || &c.pages[0][0] != &page[0]) {
		t.Fatalf("SetKey did not list the page (%d pages listed)", len(c.pages))
	}
	pagelessIfLogical(t, c, "an FHO write")
	if p := c.Page(b); recycles && (&p[0] != &page[0] || !bytes.Equal(p, zeros) || len(c.pages) != 0) {
		t.Fatal("the next Page did not take the listed page back zeroed")
	}
	c.SetKey(b, lkey.ForFHO(lkey.FH{4}, 0))
	c.Unpin(b)

	// A physical block, on the page SetKey just listed, and the logical one
	// are evicted by logical fills: only the physical block's page returns.
	c.GetForWrite(7, false, func(got *Block, err error) {
		c.Page(got)[0] = 1
		c.Unpin(got)
	})
	for lbn := int64(100); lbn < 104; lbn++ {
		c.Get(lbn, false, func(got *Block, err error) { c.Unpin(got) })
	}
	eng.Run()
	if c.Stats.Evictions < 4 {
		t.Fatalf("only %d evictions", c.Stats.Evictions)
	}
	if recycles && len(c.pages) != 1 {
		t.Fatalf("%d pages listed after evicting the physical block, want 1", len(c.pages))
	}
	pagelessIfLogical(t, c, "recycling")

	was := netbuf.DebugEnabled()
	netbuf.SetDebug(true)
	defer netbuf.SetDebug(was)
	c.GetForWrite(1, false, func(b *Block, err error) {
		page := c.Page(b)
		page[0] = 7
		c.SetKey(b, lkey.ForLBN(1))
		if len(c.pages) != 0 || page[0] == 7 || page[0] != page[4095] {
			t.Fatalf("returned page not poisoned: pages %d, data %#x..%#x", len(c.pages), page[0], page[4095])
		}
		if p := c.Page(b); &p[0] == &page[0] {
			t.Error("debug mode handed a returned page out again")
		}
		c.Unpin(b)
	})
}
