package buffercache

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// parkedLower records every write and parks its completion until the test
// lands it, so a test decides how many batches are in flight and how each
// one ends; platter holds the bytes of the writes that landed. onWrite, when
// set, sees a write before it is parked.
type parkedLower struct {
	bs      int
	writes  []fakeReq
	parked  []parkedWrite
	platter map[int64][]byte
	onWrite func()
}

type parkedWrite struct {
	lbn   int64
	count int
	data  []byte
	done  func(error)
}

func (p *parkedLower) BlockSize() int { return p.bs }

func (p *parkedLower) ReadAt(int64, int, bool, func(*netbuf.Chain, error)) {
	panic("parkedLower: the flusher tests never read through")
}

func (p *parkedLower) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	count := data.Len() / p.bs
	flat := data.Flatten()
	data.Release()
	if p.onWrite != nil {
		p.onWrite()
	}
	p.writes = append(p.writes, fakeReq{lbn: lbn, count: count, meta: meta})
	p.parked = append(p.parked, parkedWrite{lbn: lbn, count: count, data: flat, done: done})
}

// land completes the oldest parked write with err.
func (p *parkedLower) land(err error) {
	w := p.parked[0]
	p.parked = p.parked[1:]
	if err == nil && p.platter != nil {
		for i := 0; i < w.count; i++ {
			p.platter[w.lbn+int64(i)] = w.data[i*p.bs : (i+1)*p.bs]
		}
	}
	w.done(err)
}

// landAll completes every parked write, and those their landings pull.
func (p *parkedLower) landAll() {
	for len(p.parked) > 0 {
		p.land(nil)
	}
}

// blocksInFlight sums the parked writes' blocks.
func (p *parkedLower) blocksInFlight() int {
	n := 0
	for _, w := range p.parked {
		n += w.count
	}
	return n
}

// runs spells the writes issued so far as "lbn+count", "m" marking
// metadata, in issue order — the form the assertions compare.
func (p *parkedLower) runs() string {
	var out []string
	for _, w := range p.writes {
		r := fmt.Sprintf("%d+%d", w.lbn, w.count)
		if w.meta {
			r += "m"
		}
		out = append(out, r)
	}
	return strings.Join(out, " ")
}

func rigFlusher(t *testing.T, capacity, highWater int) (*sim.Engine, *parkedLower, *Cache) {
	t.Helper()
	eng := sim.NewEngine()
	lower := &parkedLower{bs: 4096, platter: map[int64][]byte{}}
	c := New(simnet.NewNode(eng, "app", simnet.DefaultProfile()), lower, capacity)
	c.EnableFlusher(highWater)
	return eng, lower, c
}

// dirty turns lbn dirty the way a whole-block write does.
func dirty(t *testing.T, c *Cache, lbn int64, meta bool) {
	t.Helper()
	c.GetForWrite(lbn, meta, func(b *Block, err error) {
		if err != nil {
			t.Fatalf("GetForWrite(%d): %v", lbn, err)
		}
		c.MarkDirty(b)
		c.Unpin(b)
	})
}

// fillBlock writes v into every byte of block lbn.
func fillBlock(t *testing.T, c *Cache, lbn int64, v byte) {
	t.Helper()
	c.GetForWrite(lbn, false, func(b *Block, err error) {
		if err != nil {
			t.Fatalf("GetForWrite(%d): %v", lbn, err)
		}
		page := c.Page(b)
		for i := range page {
			page[i] = v
		}
		c.MarkDirty(b)
		c.Unpin(b)
	})
}

func runFor(t *testing.T, eng *sim.Engine, d sim.Duration) {
	t.Helper()
	eng.RunFor(d)
}

// wantIdle drains the engine and checks what every flusher test ends on:
// a clean cache, nothing in flight and no timer left armed.
func wantIdle(t *testing.T, eng *sim.Engine, c *Cache) {
	t.Helper()
	eng.Run()
	if c.nDirty != 0 || c.nFlushing != 0 || c.fl.inFlight != 0 {
		t.Fatalf("not clean: dirty=%d flushing=%d inFlight=%d", c.nDirty, c.nFlushing, c.fl.inFlight)
	}
	if c.fl.timerSet || eng.Pending() != 0 {
		t.Fatalf("engine not idle: timerSet=%v pending=%d", c.fl.timerSet, eng.Pending())
	}
}

// (a) Oldest first, and the batch is the maximal adjacent run around the
// oldest block: never across a Meta change, capped at maxBatchBlocks.
func TestFlusherOldestFirstMaximalRun(t *testing.T) {
	eng, lower, c := rigFlusher(t, 0, 0)
	dirty(t, c, 50, false) // the oldest, alone
	for _, lbn := range []int64{101, 100, 102} {
		dirty(t, c, lbn, false) // a run dirtied out of order
	}
	dirty(t, c, 103, true) // metadata beside it ends the run
	dirty(t, c, 104, false)
	for lbn := int64(300); lbn < 400; lbn++ {
		dirty(t, c, lbn, false) // longer than one batch may be
	}
	// The first tick issues in queue order until 36 blocks are left waiting
	// behind 5 batches; the first landing pulls the last one.
	runFor(t, eng, flushInterval)
	const first = "50+1 100+3 103+1m 104+1 300+64"
	if got := lower.runs(); got != first {
		t.Fatalf("writes on the first tick = %s, want %s", got, first)
	}
	lower.land(nil)
	if got := lower.runs(); got != first+" 364+36" {
		t.Fatalf("writes = %s, want %s 364+36", got, first)
	}
	lower.landAll()
	wantIdle(t, eng, c)
}

// (a, continued) A batch never swallows a block that is mid-flush: its
// neighbours go down on their own, beside it.
func TestFlusherRunStopsAtMidFlushBlock(t *testing.T) {
	eng, lower, c := rigFlusher(t, 0, 0)
	dirty(t, c, 10, false)
	runFor(t, eng, flushInterval)
	if got := lower.runs(); got != "10+1" {
		t.Fatalf("first writes = %s, want 10+1", got)
	}
	// 10 is in flight. Its neighbours turn dirty, and enough scattered
	// blocks with them that the depth rule lets a second batch go.
	dirty(t, c, 9, false)
	dirty(t, c, 11, false)
	for i := int64(0); i < backlogPerBatch; i++ {
		dirty(t, c, 1000+2*i, false)
	}
	runFor(t, eng, flushInterval)
	if got := lower.runs(); got != "10+1 9+1" {
		t.Fatalf("writes = %s, want 10+1 9+1 (not 9+3 across the in-flight block)", got)
	}
	lower.landAll()
	wantIdle(t, eng, c)
	seen := map[int64]int{}
	for _, w := range lower.writes {
		for j := 0; j < w.count; j++ {
			seen[w.lbn+int64(j)]++
		}
	}
	if seen[9] != 1 || seen[10] != 1 || seen[11] != 1 {
		t.Fatalf("blocks 9/10/11 written %d/%d/%d times, want once each", seen[9], seen[10], seen[11])
	}
}

// depthAt is how many single-block batches the depth rule lets out of a
// backlog of n blocks when none is in flight: each one issued is one fewer
// waiting.
func depthAt(n int) int {
	k := 0
	for k <= (n-k)/backlogPerBatch {
		k++
	}
	return k
}

// (b) The flusher keeps at most 1 + backlog/backlogPerBatch of its batches
// in flight while no admission is parked; the limit lifts the moment Admit
// parks and is back once the gate has let everyone through.
func TestFlusherDepthFollowsBacklog(t *testing.T) {
	const high = 64
	eng, lower, c := rigFlusher(t, 0, high)
	gateParked := false
	deepest := 0
	lower.onWrite = func() {
		// Seen before this write is counted: the batches and blocks
		// already in flight, and the backlog it was drawn from.
		inFlight := len(lower.parked)
		backlog := c.nDirty - lower.blocksInFlight()
		if !gateParked && inFlight > backlog/backlogPerBatch {
			t.Errorf("batch issued with %d in flight at backlog %d: limit is 1+%d", inFlight, backlog, backlog/backlogPerBatch)
		}
		if inFlight+1 > deepest {
			deepest = inFlight + 1
		}
	}
	// Scattered blocks, so every batch is one block and depth is all that
	// varies. One short of the watermark: the gate stays open.
	for i := int64(0); i < high-1; i++ {
		dirty(t, c, 2*i, false)
	}
	runFor(t, eng, flushInterval)
	if want := depthAt(high - 1); deepest != want {
		t.Fatalf("deepest = %d batches out of a backlog of %d, want %d", deepest, high-1, want)
	}
	for i := 0; i < 8; i++ {
		lower.land(nil) // each landing pulls the next
	}
	if len(lower.parked) == 0 || c.nDirty != high-1-8 {
		t.Fatalf("after 8 landings: %d in flight, %d dirty", len(lower.parked), c.nDirty)
	}

	// Fill to the watermark and park one admission: everything dirty goes.
	for i := int64(0); c.nDirty < high; i++ {
		dirty(t, c, 5000+2*i, false)
	}
	admitted := false
	gateParked = true
	c.Admit(func() { admitted, gateParked = true, false })
	if admitted {
		t.Fatal("Admit ran at the high watermark")
	}
	runFor(t, eng, 0) // the kick is a same-instant event
	if len(lower.parked) != high {
		t.Fatalf("%d batches in flight with an admission parked, want all %d", len(lower.parked), high)
	}

	// Drain to the low watermark: the admission resumes and the limit is
	// back for whatever turns dirty next.
	for !admitted {
		lower.land(nil)
	}
	if c.nDirty != high/2 {
		t.Fatalf("admission resumed at %d dirty, want the low watermark %d", c.nDirty, high/2)
	}
	lower.landAll()
	deepest = 0
	for i := int64(0); i < 3*backlogPerBatch; i++ {
		dirty(t, c, 9000+2*i, false)
	}
	runFor(t, eng, flushInterval)
	if want := depthAt(3 * backlogPerBatch); deepest != want {
		t.Fatalf("deepest = %d batches after the gate reopened, want %d", deepest, want)
	}
	lower.landAll()
	wantIdle(t, eng, c)
}

// (c) A failed batch's block stays dirty, gets back in line behind what was
// already waiting, and is written again — after the next tick, not at once.
func TestFlusherRetriesFailedBatch(t *testing.T) {
	eng, lower, c := rigFlusher(t, 0, 0)
	dirty(t, c, 20, false)
	dirty(t, c, 40, false)
	runFor(t, eng, flushInterval)
	lower.land(errInjected)
	if got := lower.runs(); got != "20+1" || c.nDirty != 2 || c.nFlushing != 0 {
		t.Fatalf("after the failure: writes = %s, dirty=%d flushing=%d, want 20+1 and 2/0", got, c.nDirty, c.nFlushing)
	}
	runFor(t, eng, flushInterval)
	lower.land(nil) // 40 lands and pulls 20's second try
	if got := lower.runs(); got != "20+1 40+1 20+1" {
		t.Fatalf("writes = %s, want 20+1 40+1 20+1", got)
	}
	lower.land(nil)
	wantIdle(t, eng, c)
}

// A block rewritten while its batch is in flight stays dirty when the batch
// lands — the new bytes are not on the lower store — and goes back in line:
// the drain leaves the newest version on the lower store.
func TestFlusherRewriteInFlightIsWrittenAgain(t *testing.T) {
	eng, lower, c := rigFlusher(t, 0, 0)
	fillBlock(t, c, 9, 1)
	runFor(t, eng, flushInterval) // version 1 goes down
	fillBlock(t, c, 9, 2)
	lower.land(nil)
	if !c.IsDirty(9) {
		t.Fatal("the landing of version 1 cleaned the block holding version 2")
	}
	lower.landAll()
	wantIdle(t, eng, c)
	if got := lower.runs(); got != "9+1 9+1" {
		t.Fatalf("writes = %s, want 9+1 twice", got)
	}
	if got := lower.platter[9]; !bytes.Equal(got, bytes.Repeat([]byte{2}, 4096)) {
		t.Fatalf("lower store holds version %d after the drain, want 2", got[0])
	}
}

// Sync waits for a batch in flight: a block rewritten while the flusher's
// batch of it is on its way down is still dirty when Sync starts, and Sync
// writes it again once that batch lands, reporting only after the lower
// store holds the rewrite.
func TestSyncWaitsForBatchInFlight(t *testing.T) {
	eng, lower, c := rigFlusher(t, 0, 0)
	fillBlock(t, c, 9, 1)
	runFor(t, eng, flushInterval) // version 1 goes down, slowly
	fillBlock(t, c, 9, 2)
	synced := false
	c.Sync(func(err error) {
		if err != nil {
			t.Errorf("Sync: %v", err)
		}
		if got := lower.platter[9]; !bytes.Equal(got, bytes.Repeat([]byte{2}, 4096)) {
			t.Errorf("Sync reported while the lower store held %v of block 9, want version 2", got[:min(len(got), 1)])
		}
		synced = true
	})
	if synced {
		t.Fatal("Sync reported with version 1 still in flight")
	}
	lower.land(nil) // version 1 lands; Sync writes version 2
	if synced {
		t.Fatal("Sync reported on the landing of version 1")
	}
	if got := lower.runs(); got != "9+1 9+1" {
		t.Fatalf("writes = %s, want 9+1 twice", got)
	}
	lower.land(nil)
	if !synced {
		t.Fatal("Sync never reported")
	}
	wantIdle(t, eng, c)
}

// SyncBlocks writes only the listed dirty blocks, coalesced as Sync does,
// and skips listed blocks that are clean or not resident.
func TestSyncBlocksWritesOnlyItsList(t *testing.T) {
	eng, lower, c := rigFlusher(t, 0, 0)
	for _, lbn := range []int64{3, 7, 8, 9} {
		dirty(t, c, lbn, false)
	}
	synced := false
	c.SyncBlocks([]int64{1, 7, 8}, func(err error) { synced = err == nil })
	if got := lower.runs(); got != "7+2" {
		t.Fatalf("writes = %s, want the listed 7+2 alone", got)
	}
	lower.land(nil)
	if !synced {
		t.Fatal("SyncBlocks never reported")
	}
	if !c.IsDirty(3) || !c.IsDirty(9) || c.IsDirty(7) {
		t.Fatal("SyncBlocks touched a block it was not given")
	}
	c.Sync(func(error) {})
	lower.landAll()
	wantIdle(t, eng, c)
}

// Satellite: a block still dirty when its batch completes rejoins the FIFO
// whoever issued the batch. Here Sync did, while the flusher's own entry for
// the block was spent on it mid-flush; with no further Sync the flusher
// writes it again.
func TestFlusherRequeuesBlockFailedBySync(t *testing.T) {
	eng, lower, c := rigFlusher(t, 0, 0)
	dirty(t, c, 7, false)
	var syncErr error
	c.Sync(func(err error) { syncErr = err })
	runFor(t, eng, 2*flushInterval) // the tick pops 7's entry and finds it mid-flush
	if got := lower.runs(); got != "7+1" {
		t.Fatalf("writes = %s, want Sync's 7+1 alone", got)
	}
	lower.land(errInjected)
	if syncErr == nil {
		t.Fatal("Sync swallowed the failure")
	}
	runFor(t, eng, 2*flushInterval)
	if got := lower.runs(); got != "7+1 7+1" {
		t.Fatalf("writes = %s: the flusher never wrote block 7 again", got)
	}
	lower.land(nil)
	wantIdle(t, eng, c)
}

// The same for a batch issued for an eviction victim, once the cache is no
// longer over capacity and eviction itself has no reason to try again.
func TestFlusherRequeuesBlockFailedByEviction(t *testing.T) {
	eng, lower, c := rigFlusher(t, 2, 0)
	dirty(t, c, 1, false)
	for _, lbn := range []int64{2, 3} {
		c.GetForWrite(lbn, false, func(b *Block, err error) { c.Unpin(b) })
	}
	// Over capacity: 1 went down as a dirty victim, 2 was evicted clean.
	if got := lower.runs(); got != "1+1" || len(c.blocks) != 2 {
		t.Fatalf("writes = %s, resident = %d: want the victim's 1+1 and 2 resident", got, len(c.blocks))
	}
	runFor(t, eng, 2*flushInterval) // the tick pops 1's entry and finds it mid-flush
	if !c.Drop(3) {
		t.Fatal("Drop(3) refused")
	}
	lower.land(errInjected) // a failed victim flush leaves 1 for the flusher
	if got := lower.runs(); got != "1+1" || !c.IsDirty(1) {
		t.Fatalf("writes = %s, dirty(1) = %v: want block 1 still dirty and not yet rewritten", got, c.IsDirty(1))
	}
	runFor(t, eng, 2*flushInterval)
	if got := lower.runs(); got != "1+1 1+1" {
		t.Fatalf("writes = %s: the flusher never wrote block 1 again", got)
	}
	lower.land(nil)
	wantIdle(t, eng, c)
}

// A dirty victim whose flush fails on the spot — a lower that answers a write
// with an error before returning, which a mirror passes up — is
// written once per eviction pass, not retried from its own completion until
// the stack runs out: it stays dirty, back in the flusher's FIFO, and the
// next tick writes it again.
func TestEvictionFlushFailingInlineIsNotRetriedInline(t *testing.T) {
	eng, lower, c := rigFlusher(t, 2, 0)
	fail := true
	lower.onWrite = func() {
		if len(lower.writes) > 16 {
			t.Fatalf("%d writes of the victim inside one eviction pass", len(lower.writes))
		}
	}
	inline := &inlineLower{parkedLower: lower, fail: &fail}
	c.lower = inline
	dirty(t, c, 1, false)
	for _, lbn := range []int64{2, 3} {
		c.GetForWrite(lbn, false, func(b *Block, err error) { c.Unpin(b) })
	}
	if got := lower.runs(); got != "1+1" || !c.IsDirty(1) {
		t.Fatalf("writes = %s, dirty(1) = %v: want one failed write and block 1 still dirty", got, c.IsDirty(1))
	}
	fail = false
	wantIdle(t, eng, c)
	if got := lower.runs(); got != "1+1 1+1" {
		t.Fatalf("writes = %s: want the flusher's retry of block 1 after the failed one", got)
	}
}

// inlineLower completes every write on the spot, failing it while *fail.
type inlineLower struct {
	*parkedLower
	fail *bool
}

func (l *inlineLower) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	l.parkedLower.WriteAt(lbn, data, meta, nil)
	l.parked = l.parked[:0]
	if *l.fail {
		done(errInjected)
		return
	}
	done(nil)
}

// (e) A queue entry is a hint: when its block was dropped — and the *Block
// recycled under another LBN, or the LBN re-created clean — nothing clean or
// non-resident is written.
func TestFlusherSkipsStaleEntries(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, lower, c := rigFlusher(t, 0, 0)
	var old *Block
	c.GetForWrite(10, false, func(b *Block, err error) {
		old = b
		c.MarkDirty(b)
		c.Unpin(b)
	})
	dirty(t, c, 30, false)
	if !c.Drop(10) || !c.Drop(30) {
		t.Fatal("Drop refused")
	}
	// 30's block comes back first (the free list is a stack), then 10's
	// under LBN 20; LBN 30 is re-created, and both stay clean.
	var reborn *Block
	c.GetForWrite(30, false, func(b *Block, err error) { c.Unpin(b) })
	c.GetForWrite(20, false, func(b *Block, err error) {
		reborn = b
		c.Unpin(b)
	})
	if reborn != old {
		t.Fatal("the dropped block was not recycled: the test no longer covers a reused *Block")
	}
	wantIdle(t, eng, c)
	if got := lower.runs(); got != "" {
		t.Fatalf("writes = %s, want none", got)
	}
}

// (f) With a lower that simply completes, a burst of dirty blocks drains and
// the engine goes idle on its own: no timer outlives the dirty data.
func TestFlusherGoesIdleWhenClean(t *testing.T) {
	eng, _, lower, c := rigCache(t, 0)
	c.EnableFlusher(0)
	for lbn := int64(0); lbn < 200; lbn += 3 {
		dirty(t, c, lbn, false)
		dirty(t, c, lbn+1, false)
	}
	wantIdle(t, eng, c)
	blocks := 0
	for _, w := range lower.writes {
		blocks += w.count
	}
	if blocks != 134 {
		t.Fatalf("%d blocks written, want each of the 134 once", blocks)
	}
}

// (g) One schedule on both sides of the change: n adjacent blocks dirtied
// one per hold interval over a lower that takes several intervals per write.
// Flushing everything dirty on every tick sends each block down alone — n
// writes; pacing by the backlog lets the blocks dirtied during one write
// share the next.
func TestFlusherCoalescesSlowStream(t *testing.T) {
	const n = 32
	eng, _, lower, c := rigCache(t, 0)
	lower.latency = 5 * flushInterval
	c.EnableFlusher(0)
	for i := 0; i < n; i++ {
		lbn := int64(i)
		eng.Schedule(sim.Duration(i)*flushInterval, func() { dirty(t, c, lbn, false) })
	}
	eng.Run()
	blocks := 0
	for _, w := range lower.writes {
		blocks += w.count
	}
	t.Logf("%d blocks reached the lower in %d writes", blocks, len(lower.writes))
	if blocks != n || c.nDirty != 0 {
		t.Fatalf("%d blocks written, %d still dirty: want %d and 0", blocks, c.nDirty, n)
	}
	if len(lower.writes) > n/2 {
		t.Fatalf("%d writes for %d adjacent blocks, want at most %d", len(lower.writes), n, n/2)
	}
}

// syncLower completes every write on the spot.
type syncLower struct{ parkedLower }

func (s *syncLower) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	data.Release()
	done(nil)
}

// BenchmarkFlusherPass is one flush pass over a cache of 8,192 resident
// blocks of which one is dirty: the host cost of finding the work.
func BenchmarkFlusherPass(b *testing.B) {
	const resident = 8192
	eng := sim.NewEngine()
	c := New(simnet.NewNode(eng, "app", simnet.DefaultProfile()), &syncLower{parkedLower{bs: 4096}}, resident)
	c.EnableFlusher(0)
	var blk *Block
	for lbn := int64(0); lbn < resident; lbn++ {
		c.GetForWrite(lbn, false, func(got *Block, err error) {
			blk = got
			c.Unpin(got)
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MarkDirty(blk)
		c.fl.flushNow()
		if c.nDirty != 0 {
			b.Fatal("the pass left the block dirty")
		}
	}
}
