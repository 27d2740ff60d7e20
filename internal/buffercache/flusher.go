package buffercache

import (
	"sort"

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
	// high bounds dirty memory, in blocks: at the high watermark Admit
	// queues new work (backpressure) and an immediate flush is kicked;
	// queued admissions resume once dirty drains to the low watermark,
	// high/2. Zero disables the gate.
	high     int
	timerSet bool
	timer    sim.EventID
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
}

// admitWaiter is one admission parked at the high watermark.
type admitWaiter struct {
	run    func()
	cancel func()
	since  sim.Time
}

// EnableFlusher turns on background write-back: dirty blocks flush oldest
// first in coalesced batches, starting at most flushInterval after the cache
// turns dirty and paced by the backlog (see flushNow), and dirty memory is
// bounded by the admission gate at highWaterBlocks. Call before traffic.
func (c *Cache) EnableFlusher(highWaterBlocks int) {
	c.fl = &flusher{high: highWaterBlocks}
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
// until the flusher drains to the low watermark. cancel fires instead of
// run if the cache is reset (crash) while queued.
func (c *Cache) Admit(run, cancel func()) {
	fl := c.fl
	if fl == nil || fl.high <= 0 || c.nDirty < fl.high {
		run()
		return
	}
	c.wb.Stalls++
	fl.admitQ = append(fl.admitQ, admitWaiter{run: run, cancel: cancel, since: c.node.Eng.Now()})
	fl.kick(c)
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
func (fl *flusher) onDirty(c *Cache, b *Block) {
	if fl == nil {
		return
	}
	fl.queue = append(fl.queue, b.LBN)
	if fl.high > 0 && c.nDirty >= fl.high {
		fl.kick(c)
	}
	if fl.timerSet {
		return
	}
	fl.timerSet = true
	fl.timer = c.node.Eng.Schedule(flushInterval, func() { fl.tick(c) })
}

// tick is the hold-timer body: top the flusher up to its depth, then re-arm
// while anything is dirty (a tick that finds the cache clean lets the timer
// die). Between ticks each landing batch pulls the next; the tick starts the
// first one and retries after a failed one.
func (fl *flusher) tick(c *Cache) {
	fl.timerSet = false
	fl.flushNow(c)
	if c.nDirty > 0 {
		fl.timerSet = true
		fl.timer = c.node.Eng.Schedule(flushInterval, func() { fl.tick(c) })
	}
}

// kick schedules an immediate (same-instant) flush, deduplicated.
func (fl *flusher) kick(c *Cache) {
	if fl.kickSet {
		return
	}
	fl.kickSet = true
	c.node.Eng.Schedule(0, func() {
		fl.kickSet = false
		fl.flushNow(c)
	})
}

// flushNow issues batches from the dirty FIFO, oldest block first, until the
// flusher has 1 + backlog/backlogPerBatch of its own in flight — backlog
// being the dirty blocks not yet on their way down. While admissions are
// parked at the gate there is no limit: everything dirty goes, as hard as
// the lower will take it. Background-flush errors are swallowed here: the
// blocks rejoin the queue in flushBatch's completion and the next tick
// retries (synchronous callers use Sync, which reports them).
func (fl *flusher) flushNow(c *Cache) {
	if fl.pumping {
		return
	}
	fl.pumping = true
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
		c.flushBatch(c.runAround(b), func(err error) {
			fl.inFlight--
			if err == nil {
				fl.flushNow(c)
			}
		})
	}
	fl.pumping = false
	// Reclaim the popped prefix once it outweighs what is still queued.
	if fl.head > len(fl.queue)/2 {
		fl.queue = fl.queue[:copy(fl.queue, fl.queue[fl.head:])]
		fl.head = 0
	}
}

// flushable reports whether lbn holds a block that can join a batch of the
// given kind right now.
func (c *Cache) flushable(lbn int64, meta bool) bool {
	b, ok := c.blocks[lbn]
	return ok && b.Dirty && !b.flushing && b.Meta == meta
}

// runAround returns the adjacent run of flushable blocks around b in LBN
// order, whatever their age, at most maxBatchBlocks long. It grows upward
// first: a stream dirties its blocks front to back, so the oldest block's
// younger neighbours lie above it.
func (c *Cache) runAround(b *Block) []*Block {
	lo, hi := b.LBN, b.LBN
	for hi-lo+1 < maxBatchBlocks && c.flushable(hi+1, b.Meta) {
		hi++
	}
	for hi-lo+1 < maxBatchBlocks && c.flushable(lo-1, b.Meta) {
		lo--
	}
	run := make([]*Block, 0, hi-lo+1)
	for lbn := lo; lbn <= hi; lbn++ {
		run = append(run, c.blocks[lbn])
	}
	return run
}

// batchLanded runs after every write-back batch completes: resume parked
// admissions once the gauge has drained to the low watermark (hysteresis —
// refills stop again at the high watermark).
func (fl *flusher) batchLanded(c *Cache) {
	if fl == nil || len(fl.admitQ) == 0 {
		return
	}
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

// collectDirty snapshots the dirty, not-in-flight blocks in LBN order.
func (c *Cache) collectDirty() []*Block {
	var dirty []*Block
	for _, b := range c.blocks { // det: sorted (by LBN below, before any I/O is issued)
		if b.Dirty && !b.flushing {
			dirty = append(dirty, b)
		}
	}
	// Issue order decides the event schedule downstream (batch boundaries,
	// remap announcements) — runs must replay bit-for-bit.
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].LBN < dirty[j].LBN })
	return dirty
}

// flushBatches coalesces dirty (LBN-sorted, non-flushing) blocks into
// adjacent-LBN scatter-gather writes and issues them concurrently; done
// fires once every batch lands, with the first error.
func (c *Cache) flushBatches(dirty []*Block, done func(error)) {
	if len(dirty) == 0 {
		done(nil)
		return
	}
	var batches [][]*Block
	for i := 0; i < len(dirty); {
		j := i + 1
		for j < len(dirty) && j-i < maxBatchBlocks &&
			dirty[j].LBN == dirty[j-1].LBN+1 && dirty[j].Meta == dirty[i].Meta {
			j++
		}
		batches = append(batches, dirty[i:j])
		i = j
	}
	remaining := len(batches)
	var failed error
	for _, batch := range batches {
		c.flushBatch(batch, func(err error) {
			if err != nil && failed == nil {
				failed = err
			}
			remaining--
			if remaining == 0 {
				done(failed)
			}
		})
	}
}

// flushBatch writes one adjacent run of dirty blocks down as a single
// scatter-gather I/O. Logical blocks travel as stamped junk (a key copy)
// that the NCache write hook below will substitute and remap; real blocks
// are physically copied into the transmit chain. One lower.WriteAt per batch
// means one remap announcement per batch on the control plane.
func (c *Cache) flushBatch(batch []*Block, done func(error)) {
	var chain *netbuf.Chain
	var cost sim.Duration
	for _, b := range batch {
		var part *netbuf.Chain
		if key, ok := b.Key(); ok {
			part = lkey.StampChainPool(c.node.BlkPool, key, c.bs)
			c.node.Copies.AddLogical()
			cost += c.LogicalCopyNs
		} else {
			part = c.node.TxPool.GetChain(b.Data)
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
	gen := c.gen
	c.lower.WriteAt(batch[0].LBN, chain, batch[0].Meta, func(err error) {
		if c.gen != gen {
			// The cache was reset (crash) while this write was in flight:
			// the blocks are orphans and the pipeline that issued them is
			// gone. The payload chain's lifecycle completed in the lower
			// layers as usual, so pools stay drained.
			return
		}
		for _, b := range batch {
			b.flushing = false
			if b.Dirty {
				c.nFlushing-- // a block dropped in flight left the gauge in drop
			}
			if err != nil {
				// Stays dirty and gets back in line — the one place a block
				// still dirty after its batch rejoins the FIFO, whoever
				// issued the batch (flusher, Sync or eviction).
				if b.Dirty && c.fl != nil {
					c.fl.queue = append(c.fl.queue, b.LBN)
				}
				continue
			}
			if b.Dirty {
				b.Dirty = false
				c.noteClean()
			}
			// A flushed logical block now has a known storage location:
			// extend its key with the LBN identity (the fs-cache half of
			// the paper's FHO→LBN remapping).
			if key, ok := b.Key(); ok && key.Flags&lkey.HasFHO != 0 {
				lkey.Stamp(b.Data, key.WithLBN(b.LBN))
			}
		}
		if err == nil && c.onFlush != nil {
			c.onFlush()
		}
		if c.fl != nil {
			c.fl.batchLanded(c)
		}
		done(err)
	})
}

// Reset models a crash: every resident block, queued admission and armed
// timer is discarded, and completions of I/O already in flight are ignored
// (generation check). In-flight payload chains are owned by the lower
// layers and complete their lifecycle normally — pools see no leak.
func (c *Cache) Reset() {
	c.gen++
	for _, b := range c.blocks { // det: commutative (unconditional detach)
		b.pending = nil
		b.prev, b.next = nil, nil
	}
	c.blocks = make(map[int64]*Block)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	if c.nDirty > 0 {
		c.wb.AddDirty(-int64(c.nDirty) * int64(c.bs))
		c.nDirty = 0
	}
	c.nFlushing = 0
	if fl := c.fl; fl != nil {
		fl.queue, fl.head, fl.inFlight = nil, 0, 0
		if fl.timerSet {
			c.node.Eng.Cancel(fl.timer)
			fl.timerSet = false
		}
		q := fl.admitQ
		fl.admitQ = nil
		for _, w := range q {
			if w.cancel != nil {
				w.cancel()
			}
		}
	}
}
