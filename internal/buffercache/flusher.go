package buffercache

import (
	"cmp"
	"slices"

	"ncache/internal/lkey"
	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
)

// maxBatchBlocks caps one coalesced write-back I/O: 64 blocks (256 KB at
// 4 KB blocks) keeps one scatter-gather write inside a single iSCSI
// command's comfortable range.
const maxBatchBlocks = 64

// backlogPerBatch sets the flusher's depth: one more batch may be in flight
// for every backlogPerBatch dirty blocks still waiting. A nearly clean cache
// trickles one batch at a time, which leaves a stream's next block time to
// turn dirty beside the last one; a filling cache pushes harder. A fixed low
// depth instead starves random overwrites (no adjacency to win, and four
// disks need ≈ 64 I/Os in flight), a longer hold instead releases bursts
// that head-of-line-block replies on the server NIC. 4 gives up tail
// latency; 16 already behaves like the longer hold (DESIGN.md §12).
const backlogPerBatch = 8

// flushInterval is the dirty-hold time: the first batch goes down at most
// flushInterval after the cache turns dirty, and the timer then ticks at that
// period — topping the flusher up, retrying failed batches — until the cache
// is clean again. It stays disarmed while the cache is clean, so an idle
// engine run terminates.
const flushInterval = 500 * sim.Microsecond

// flusher is the cache's background write-back state. All of it runs on the
// cache's node engine, so flush scheduling is part of the deterministic
// event schedule.
type flusher struct {
	c *Cache
	// high bounds dirty memory, in blocks: at the high watermark Admit
	// queues new work (backpressure) and an immediate flush is kicked;
	// queued admissions resume once dirty drains to the low watermark,
	// high/2. Zero disables the gate.
	high     int
	timerSet bool
	kickSet  bool
	admitQ   []admitWaiter
	// queue[head:] is the dirty FIFO: LBNs in the order their blocks turned
	// dirty. Oldest first is the order the WAL's prefix-only truncation
	// wants. An entry is only a hint — its block may since have been
	// flushed beside a neighbour, dropped or evicted — and is checked
	// against the resident map when popped.
	queue []int64
	head  int
	// inFlight counts the flusher's own batches not yet landed; pumping
	// guards flushNow against re-entry from a lower that completes
	// synchronously.
	inFlight int
	pumping  bool
	// onTick, onKick and onLanded are tick, kicked and landed, bound once.
	onTick, onKick func()
	onLanded       func(error)
}

// admitWaiter is one admission parked at the high watermark.
type admitWaiter struct {
	run   func()
	since sim.Time
}

// EnableFlusher turns on background write-back: dirty blocks flush oldest
// first in coalesced batches, starting at most flushInterval after the cache
// turns dirty and paced by the backlog (see flushNow), and dirty memory is
// bounded by the admission gate at highWaterBlocks. Call before traffic.
func (c *Cache) EnableFlusher(highWaterBlocks int) {
	fl := &flusher{c: c, high: highWaterBlocks}
	fl.onTick, fl.onKick, fl.onLanded = fl.tick, fl.kicked, fl.landed
	c.fl = fl
}

// SetWritebackStats shares a pipeline-counter struct (a server wires the
// same instance into its WAL so one report covers the whole dirty path).
func (c *Cache) SetWritebackStats(wb *metrics.Writeback) { c.wb = wb }

// IsDirty reports whether lbn is resident and dirty — the WAL truncation
// predicate: a journaled record may retire only when none of its blocks
// still awaits write-back.
func (c *Cache) IsDirty(lbn int64) bool {
	b, ok := c.blocks[lbn]
	return ok && b.Dirty
}

// SetFlushObserver installs a callback fired after every write-back batch
// lands successfully (the server truncates its WAL there).
func (c *Cache) SetFlushObserver(fn func()) { c.onFlush = fn }

// Admit passes one unit of new dirty work through the write-back
// backpressure gate: run fires immediately while dirty memory is below the
// high watermark (or no gate is configured), and is otherwise queued FIFO
// until the flusher drains to the low watermark.
func (c *Cache) Admit(run func()) {
	fl := c.fl
	if fl == nil || fl.high <= 0 || c.nDirty < fl.high {
		run()
		return
	}
	c.wb.Stalls++
	fl.admitQ = append(fl.admitQ, admitWaiter{run: run, since: c.node.Eng.Now()})
	fl.kick()
}

// noteDirty/noteClean maintain the dirty gauge on every transition.
func (c *Cache) noteDirty() {
	c.nDirty++
	c.wb.AddDirty(int64(c.bs))
}

func (c *Cache) noteClean() {
	c.nDirty--
	c.wb.AddDirty(-int64(c.bs))
}

// onDirty reacts to a 0→dirty block transition: the block joins the dirty
// FIFO, the hold timer is armed, and an immediate flush is kicked at the
// high watermark.
func (fl *flusher) onDirty(b *Block) {
	if fl == nil {
		return
	}
	fl.queue = append(fl.queue, b.LBN)
	if fl.high > 0 && fl.c.nDirty >= fl.high {
		fl.kick()
	}
	if fl.timerSet {
		return
	}
	fl.timerSet = true
	fl.c.node.Schedule(flushInterval, fl.onTick)
}

// tick is the hold-timer body: top the flusher up to its depth, then re-arm
// while anything is dirty (a tick that finds the cache clean lets the timer
// die). Between ticks each landing batch pulls the next; the tick starts the
// first one and retries after a failed one.
func (fl *flusher) tick() {
	fl.timerSet = false
	fl.flushNow()
	if fl.c.nDirty > 0 {
		fl.timerSet = true
		fl.c.node.Schedule(flushInterval, fl.onTick)
	}
}

// kick schedules an immediate (same-instant) flush, deduplicated.
func (fl *flusher) kick() {
	if fl.kickSet {
		return
	}
	fl.kickSet = true
	fl.c.node.Schedule(0, fl.onKick)
}

// kicked is the kick's event body.
func (fl *flusher) kicked() {
	fl.kickSet = false
	fl.flushNow()
}

// flushNow issues batches from the dirty FIFO, oldest block first, until the
// flusher has 1 + backlog/backlogPerBatch of its own in flight — backlog
// being the dirty blocks not yet on their way down. While admissions are
// parked at the gate there is no limit: everything dirty goes, as hard as
// the lower will take it. Background-flush errors are swallowed here: the
// blocks rejoin the queue in the batch's completion and the next tick
// retries (synchronous callers use Sync, which reports them).
func (fl *flusher) flushNow() {
	if fl.pumping {
		return
	}
	fl.pumping = true
	c := fl.c
	// A pass stops at the entries queued when it began: a block whose batch
	// fails on the spot (a mirror with no arm left) rejoins the queue behind
	// them and waits for the next tick instead of spinning here.
	for end := len(fl.queue); fl.head < end; {
		if len(fl.admitQ) == 0 && fl.inFlight > (c.nDirty-c.nFlushing)/backlogPerBatch {
			break
		}
		b, ok := c.blocks[fl.queue[fl.head]]
		fl.head++
		if !ok || !b.Dirty || b.flushing {
			continue
		}
		fl.inFlight++
		f := c.flush(fl.onLanded)
		f.blocks = c.runAround(b, f.blocks)
		c.flushBatch(f)
	}
	fl.pumping = false
	// Reclaim the popped prefix once it outweighs what is still queued.
	if fl.head > len(fl.queue)/2 {
		fl.queue = fl.queue[:copy(fl.queue, fl.queue[fl.head:])]
		fl.head = 0
	}
}

// landed is the completion of the flusher's own batches: a landed batch
// pulls the next.
func (fl *flusher) landed(err error) {
	fl.inFlight--
	if err == nil {
		fl.flushNow()
	}
}

// flushable reports whether lbn holds a block that can join a batch of the
// given kind right now.
func (c *Cache) flushable(lbn int64, meta bool) bool {
	b, ok := c.blocks[lbn]
	return ok && b.Dirty && !b.flushing && b.Meta == meta
}

// runAround appends to run the adjacent run of flushable blocks around b in
// LBN order, whatever their age, at most maxBatchBlocks long. It grows upward
// first: a stream dirties its blocks front to back, so the oldest block's
// younger neighbours lie above it.
func (c *Cache) runAround(b *Block, run []*Block) []*Block {
	lo, hi := b.LBN, b.LBN
	for hi-lo+1 < maxBatchBlocks && c.flushable(hi+1, b.Meta) {
		hi++
	}
	for hi-lo+1 < maxBatchBlocks && c.flushable(lo-1, b.Meta) {
		lo--
	}
	for lbn := lo; lbn <= hi; lbn++ {
		run = append(run, c.blocks[lbn])
	}
	return run
}

// batchLanded runs after every write-back batch completes: resume parked
// admissions once the gauge has drained to the low watermark (hysteresis —
// refills stop again at the high watermark).
func (fl *flusher) batchLanded() {
	if fl == nil || len(fl.admitQ) == 0 {
		return
	}
	c := fl.c
	if c.nDirty > fl.high/2 {
		return
	}
	for len(fl.admitQ) > 0 && c.nDirty < fl.high {
		w := fl.admitQ[0]
		fl.admitQ = fl.admitQ[1:]
		c.wb.StallNs += int64(c.node.Eng.Now() - w.since)
		w.run()
	}
}

// Sync flushes every dirty block in coalesced adjacent-LBN batches, issued
// concurrently, and calls done once every batch lands, with the first error:
// SyncBlocks over the whole cache.
func (c *Cache) Sync(done func(error)) {
	s := c.syncCall()
	for _, b := range c.blocks { // det: sorted (by LBN in startSync, before any I/O is issued)
		s.add(b)
	}
	c.startSync(s, done)
}

// SyncBlocks is Sync restricted to the blocks of lbns, a sorted list; LBNs
// that are not resident, or not dirty, are skipped. It is what a stable
// WRITE waits for: its own blocks, and no other writer's batches.
func (c *Cache) SyncBlocks(lbns []int64, done func(error)) {
	s := c.syncCall()
	for _, lbn := range lbns {
		if b, ok := c.blocks[lbn]; ok {
			s.add(b)
		}
	}
	c.startSync(s, done)
}

// syncCall takes a blank Sync record.
func (c *Cache) syncCall() *syncCall {
	s := c.syncCalls.Take()
	if s == nil {
		s = &syncCall{c: c}
		s.onLanded = s.landed
	}
	return s
}

// add puts b on the record's lists if it is dirty: to issue now, or, when
// its batch is in flight, to wait for.
func (s *syncCall) add(b *Block) {
	switch {
	case b.Dirty && b.flushing:
		s.busy = append(s.busy, b)
	case b.Dirty:
		s.dirty = append(s.dirty, b)
	}
}

// startSync issues the record's dirty blocks and calls done once every
// batch lands. A block whose batch is in flight may hold bytes written since
// it was issued: the Sync waits for that batch to land, then writes the
// block again if it is still dirty (syncsLanded).
func (c *Cache) startSync(s *syncCall, done func(error)) {
	if len(s.dirty) == 0 && len(s.busy) == 0 {
		s.retire()
		done(nil)
		return
	}
	// One more than the batches: the guard keeps a batch that lands on the
	// spot from reporting before the rest are issued.
	s.remaining, s.done = 1, done
	if len(s.busy) > 0 {
		slices.SortFunc(s.busy, byLBN)
		s.remaining++
		c.syncs = append(c.syncs, s)
	}
	c.syncRuns(s)
	s.landed(nil)
}

// byLBN orders blocks by LBN.
func byLBN(a, b *Block) int { return cmp.Compare(a.LBN, b.LBN) }

// syncRuns issues s.dirty in coalesced adjacent-LBN batches, each counted
// in s.remaining, and empties it.
func (c *Cache) syncRuns(s *syncCall) {
	dirty := s.dirty
	// Issue order decides the event schedule downstream (batch boundaries,
	// remap announcements) — runs must replay bit-for-bit.
	slices.SortFunc(dirty, byLBN)
	for i := 0; i < len(dirty); {
		j := i + 1
		for j < len(dirty) && j-i < maxBatchBlocks &&
			dirty[j].LBN == dirty[j-1].LBN+1 && dirty[j].Meta == dirty[i].Meta {
			j++
		}
		s.remaining++
		f := c.flush(s.onLanded)
		f.blocks = append(f.blocks, dirty[i:j]...)
		c.flushBatch(f)
		i = j
	}
	clear(dirty)
	s.dirty = dirty[:0]
}

// syncsLanded runs after a batch lands: each Sync that found blocks of a
// batch in flight writes again those whose batch has landed and that are
// still dirty (rewritten meanwhile, or failed), and stops waiting once none
// is in flight.
func (c *Cache) syncsLanded() {
	if len(c.syncs) == 0 {
		return
	}
	// Detached, so that a batch landing on the spot finds a list of its
	// own to walk; the two lists take turns.
	syncs := c.syncs
	c.syncs, c.syncsSpare = c.syncsSpare[:0], nil
	for _, s := range syncs {
		n := 0
		for _, b := range s.busy {
			switch {
			case b.flushing:
				s.busy[n] = b
				n++
			case b.Dirty:
				s.dirty = append(s.dirty, b)
			}
		}
		clear(s.busy[n:])
		s.busy = s.busy[:n]
		if n > 0 {
			c.syncs = append(c.syncs, s)
		}
		c.syncRuns(s)
		if n == 0 {
			s.landed(nil)
		}
	}
	if c.syncsSpare == nil {
		clear(syncs)
		c.syncsSpare = syncs[:0]
	}
}

// syncCall is the recycled record of one Sync: the batches it waits for
// (remaining), the blocks it has yet to issue (dirty) and those whose
// batches were in flight (busy), both with their capacity kept. onLanded is
// landed, bound once.
type syncCall struct {
	netbuf.Recycled
	c           *Cache
	remaining   int
	failed      error
	done        func(error)
	onLanded    func(error)
	dirty, busy []*Block
}

// landed counts one batch in; the last retires the record and reports the
// first error.
func (s *syncCall) landed(err error) {
	if s.Retired() {
		panic("buffercache: a batch landed for a Sync that has reported")
	}
	if err != nil && s.failed == nil {
		s.failed = err
	}
	s.remaining--
	if s.remaining == 0 {
		done, failed := s.done, s.failed
		s.retire()
		done(failed)
	}
}

// retire hands the record back to its cache.
func (s *syncCall) retire() {
	*s = syncCall{Recycled: s.Recycled, c: s.c, onLanded: s.onLanded, dirty: s.dirty, busy: s.busy}
	s.c.syncCalls.Put(s)
}

// flush is the recycled record of one write-back batch: the adjacent run of
// dirty blocks it writes (whose capacity the record keeps), the cache's seq
// at issue (mark), and done — the issuer's continuation: the flusher's, an
// eviction's or a Sync's. written is bound once; the record retires before
// done runs.
type flush struct {
	netbuf.Recycled
	c         *Cache
	blocks    []*Block
	mark      uint64
	done      func(error)
	onWritten func(error)
}

// flush takes a blank batch record that will report to done.
func (c *Cache) flush(done func(error)) *flush {
	f := c.flushes.Take()
	if f == nil {
		f = &flush{c: c}
		f.onWritten = f.written
	}
	f.done = done
	return f
}

// retire hands the record back to its cache.
func (f *flush) retire() {
	clear(f.blocks)
	*f = flush{Recycled: f.Recycled, c: f.c, blocks: f.blocks[:0], onWritten: f.onWritten}
	f.c.flushes.Put(f)
}

// flushBatch writes one adjacent run of dirty blocks down as a single
// scatter-gather I/O. Logical blocks travel as stamped junk (a key copy)
// that the NCache write hook below will substitute and remap; real blocks
// are physically copied into the transmit chain. One lower.WriteAt per batch
// means one remap announcement per batch on the control plane.
func (c *Cache) flushBatch(f *flush) {
	batch := f.blocks
	var chain *netbuf.Chain
	var cost sim.Duration
	for _, b := range batch {
		var part *netbuf.Chain
		if b.Logical {
			part = lkey.StampChainPool(c.node.BlkPool, b.Key, c.bs)
			c.node.Copies.AddLogical()
			cost += c.node.Cost.LogicalCopyNs
		} else {
			part = c.node.TxPool.GetChain(c.Page(b))
			c.node.Copies.AddPhysical(c.bs)
			cost += c.node.Cost.CopyCost(c.bs)
		}
		if chain == nil {
			chain = part
		} else {
			chain.AppendChain(part)
		}
	}
	for _, b := range batch {
		b.flushing = true
	}
	c.nFlushing += len(batch)
	c.node.Charge(cost, nil)
	c.wb.FlushBatches++
	c.wb.FlushBlocks += uint64(len(batch))
	f.mark = c.seq
	c.lower.WriteAt(batch[0].LBN, chain, batch[0].Meta, f.onWritten)
}

// written settles the batch's blocks once the lower write completes: a block
// turns clean only if the write landed and the block is unchanged since the
// batch was issued (stamp ≤ mark).
func (f *flush) written(err error) {
	c, done := f.c, f.done
	for _, b := range f.blocks {
		b.flushing = false
		if !b.Dirty {
			continue // dropped in flight: drop settled the gauges
		}
		c.nFlushing--
		if err != nil || b.stamp > f.mark {
			// Stays dirty and gets back in line — the one place a block
			// still dirty after its batch rejoins the FIFO, whoever
			// issued the batch (flusher, Sync or eviction).
			if c.fl != nil {
				c.fl.queue = append(c.fl.queue, b.LBN)
			}
			continue
		}
		b.Dirty = false
		c.noteClean()
		// A flushed logical block now has a known storage location:
		// extend its key with the LBN identity (the fs-cache half of
		// the paper's FHO→LBN remapping).
		if b.Logical && b.Key.Flags&lkey.HasFHO != 0 {
			b.Key = b.Key.WithLBN(b.LBN)
		}
	}
	c.syncsLanded()
	if err == nil && c.onFlush != nil {
		c.onFlush()
	}
	c.fl.batchLanded()
	f.retire()
	done(err)
}
