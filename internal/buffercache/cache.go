// Package buffercache implements the file-system buffer/page cache of the
// pass-through server: a bounded write-back LRU of block-sized buffers over
// an iSCSI-backed block store.
//
// The cache is deliberately mechanism-only: it neither knows nor cares which
// of the paper's three configurations is running. A cached block either
// holds real payload bytes in a page, or is a *logical block* — one whose
// lkey key stands for the payload, because the NCache (or baseline) hooks
// below it handed up a marked junk buffer instead — and holds no page at
// all. SetKey makes a block logical and Page makes it physical; no other
// call changes which it is. The cache moves logical blocks with 40-byte key
// copies and real blocks with charged physical copies; everything else
// follows from which hooks are installed. This mirrors §4.1's claim that the
// buffer cache itself needs no modification (Table 1: "buffer cache: None").
package buffercache

import (
	"fmt"

	"ncache/internal/lkey"
	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// Lower is the block store beneath the cache. It is the data-path subset
// of storage.Volume, so any volume (a target's mirror, sharded targets)
// plugs in directly.
type Lower interface {
	BlockSize() int
	// ReadAt fetches a contiguous run; meta marks file-system metadata.
	ReadAt(lbn int64, count int, meta bool, done func(*netbuf.Chain, error))
	// WriteAt stores a contiguous run; the callee owns the chain.
	WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error))
}

// Block is one cached buffer. Callers receive pinned blocks and must Unpin
// them; a pinned block is never evicted. The flags share one word, so a block
// with its key fits a 128-byte allocation. Logical, Key and Data are the
// cache's to assign: callers change them through SetKey and Page.
type Block struct {
	netbuf.Recycled
	// Logical marks a block whose payload Key stands for (see package
	// lkey); Data is then nil.
	Logical bool
	// Dirty marks modifications not yet on the lower store.
	Dirty bool
	// Meta marks file-system metadata blocks.
	Meta     bool
	flushing bool
	loaded   bool
	LBN      int64
	// Data is the block's page: nil while the block is logical, and
	// possibly nil on a physical block that was never written, which reads
	// as zeros (see Page).
	Data []byte
	// Key identifies the payload of a logical block. It is valid only when
	// Logical is set.
	Key   lkey.Key
	pins  int
	stamp uint64 // the cache's seq at the latest modification
	// pending parks the callers waiting for an in-flight fill.
	pending []waiter
	// prev/next link the block into the cache's LRU ring while resident
	// (both nil otherwise), so a block and its LRU position are one object
	// and recycle together; its page recycles on its own.
	prev, next *Block
}

// Cache is the bounded buffer cache.
type Cache struct {
	node     *simnet.Node
	lower    Lower
	bs       int
	capacity int

	blocks map[int64]*Block
	// lru is the sentinel of the LRU ring: lru.next is the most recently
	// used block, lru.prev the eviction candidate.
	lru Block
	// free holds blocks evicted clean with nothing referring to them;
	// insert reuses them before it carves one from slab. pages holds the
	// pages of recycled and logical blocks; Page reuses them (zeroed)
	// before it allocates.
	free  netbuf.FreeList[*Block]
	slab  netbuf.Slab[Block]
	pages [][]byte
	// reads and runs are the free lists of the miss path's records.
	reads netbuf.FreeList[*read]
	runs  netbuf.FreeList[*run]
	// flushes is the free list of write-back batch records; onEvicted is
	// evicted, bound once.
	flushes   netbuf.FreeList[*flush]
	onEvicted func(error)

	// Stats is hit/miss/eviction accounting.
	Stats metrics.Cache

	// fl is the background write-back flusher (nil until EnableFlusher);
	// wb the shared dirty-pipeline counters; nDirty the dirty-block gauge
	// and nFlushing the part of it already on its way down.
	fl        *flusher
	wb        *metrics.Writeback
	nDirty    int
	nFlushing int
	seq       uint64 // counts modifications (MarkDirty)
	// onFlush fires after every successful write-back batch (WAL
	// truncation hook).
	onFlush func()
	// syncs are the Syncs waiting for batches in flight (syncsLanded);
	// syncsSpare is the list they move to at each landing; syncCalls is
	// the free list of Sync records.
	syncs, syncsSpare []*syncCall
	syncCalls         netbuf.FreeList[*syncCall]
}

// New creates a cache of capacityBlocks blocks over lower.
func New(node *simnet.Node, lower Lower, capacityBlocks int) *Cache {
	c := &Cache{
		node:     node,
		lower:    lower,
		bs:       lower.BlockSize(),
		capacity: capacityBlocks,
		blocks:   make(map[int64]*Block, capacityBlocks),
		wb:       &metrics.Writeback{},
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.onEvicted = c.evicted
	return c
}

// ResidentLBNs lists the resident blocks, most recently used first. Test
// only: the LRU order is what extfs's differential walk tests compare, and
// they live in another package; nothing in the simulation calls it.
func (c *Cache) ResidentLBNs() []int64 {
	out := make([]int64, 0, len(c.blocks))
	for b := c.lru.next; b != &c.lru; b = b.next {
		out = append(out, b.LBN)
	}
	return out
}

// unlink takes a resident block out of the LRU ring.
func (b *Block) unlink() {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
}

// pushFront links a block in at the MRU position.
func (c *Cache) pushFront(b *Block) {
	b.prev, b.next = &c.lru, c.lru.next
	b.prev.next, b.next.prev = b, b
}

// touch moves a block to the MRU position.
func (c *Cache) touch(b *Block) {
	if b.next != nil {
		b.unlink()
		c.pushFront(b)
	}
}

// insert creates a resident, unpinned block entry, from the free list when
// it has one and else from the slab. A metadata block gets its page here,
// since the file system reads and writes metadata in place; a data block
// gets one only when it first holds real bytes (Page).
func (c *Cache) insert(lbn int64, meta bool) *Block {
	b := c.free.Take()
	if b != nil {
		*b = Block{}
	} else {
		b = c.slab.New()
	}
	b.LBN, b.Meta = lbn, meta
	if meta {
		c.Page(b)
	}
	c.pushFront(b)
	c.blocks[lbn] = b
	return b
}

// SetKey makes b a logical block whose payload k stands for. Its page, if it
// had one, goes back to the page list: a logical block's bytes are its key's.
func (c *Cache) SetKey(b *Block, k lkey.Key) {
	b.Logical, b.Key = true, k
	c.dropPage(b)
}

// Page makes b a physical block and returns its page. A block without one
// gets a zeroed page from the page list, or a new one when the list is
// empty, so a reused page cannot be told from a fresh one. The caller reads
// the key first when it needs it.
func (c *Cache) Page(b *Block) []byte {
	b.Logical, b.Key = false, lkey.Key{}
	if b.Data == nil {
		if k := len(c.pages); k > 0 {
			b.Data, c.pages = c.pages[k-1], c.pages[:k-1]
			clear(b.Data)
		} else {
			b.Data = make([]byte, c.bs)
		}
	}
	return b.Data
}

// dropPage hands b's page, if it has one, back to the page list (debug mode
// poisons and abandons it instead; see netbuf.Recycle).
func (c *Cache) dropPage(b *Block) {
	if b.Data != nil && netbuf.Recycle(b.Data) {
		c.pages = append(c.pages, b.Data)
	}
	b.Data = nil
}

// drop removes a block from the cache, settling the dirty gauge.
func (c *Cache) drop(b *Block) {
	if b.Dirty {
		b.Dirty = false
		c.noteClean()
		if b.flushing {
			c.nFlushing--
		}
	}
	delete(c.blocks, b.LBN)
	if b.next != nil {
		b.unlink()
	}
}

// recycle drops a block and, when nothing can refer to it any more —
// unpinned, loaded (so no fill holds it) and not mid-flush (so no write-back
// completion holds it) — reclaims it. A block dropped mid-flush is reclaimed
// when its batch lands (flush.written); one dropped pinned, by its last
// Unpin. Blocks are carved from a slab, so one never reclaimed would keep
// its whole slab alive.
func (c *Cache) recycle(b *Block) {
	idle := !b.held() && !b.flushing
	c.drop(b)
	if idle {
		c.reclaim(b)
	}
}

// held reports a block a caller pins or a fill still holds: eviction skips
// it, and a drop leaves it to its holders.
func (b *Block) held() bool { return b.pins > 0 || !b.loaded }

// reclaim keeps a dropped block that nothing refers to for the next insert,
// and its page for the next Page.
func (c *Cache) reclaim(b *Block) {
	c.dropPage(b)
	c.free.Put(b)
}

// evictForRoom frees LRU blocks until at most capacity blocks remain,
// flushing dirty victims. Pinned, in-flight and flushing blocks are skipped;
// under total pinning the cache temporarily exceeds capacity, as a real
// kernel does under memory pressure.
func (c *Cache) evictForRoom() {
	if c.capacity <= 0 {
		return
	}
	for b := c.lru.prev; b != &c.lru && len(c.blocks) > c.capacity; {
		prev := b.prev
		switch {
		case b.held() || b.flushing:
		case b.Dirty:
			f := c.flush(c.onEvicted)
			f.blocks = append(f.blocks, b)
			c.flushBatch(f)
		default:
			c.Stats.Evictions++
			c.recycle(b)
		}
		b = prev
	}
}

// evicted is the completion of a dirty victim's flush: once it lands the
// block is clean and unpinned, so eviction runs again. A failed flush leaves
// the block dirty, back in the flusher's FIFO, for the next insert, unpin or
// tick to retry: running eviction from here would pick the same block again,
// and against a lower that fails on the spot that recursion never ends.
func (c *Cache) evicted(err error) {
	if err == nil {
		c.evictForRoom()
	}
}

// hit pins a resident, loaded block and books the hit — the per-block work
// of the read paths' fast and slow paths alike.
func (c *Cache) hit(b *Block) {
	b.pins++
	c.Stats.Hits++
	c.touch(b)
}

// Get returns one pinned block, reading through on a miss.
func (c *Cache) Get(lbn int64, meta bool, done func(*Block, error)) {
	if b, ok := c.blocks[lbn]; ok && b.loaded {
		// Resident hit: the pointer is already in the map.
		c.hit(b)
		done(b, nil)
		c.evictForRoom()
		return
	}
	rd := c.read()
	rd.doneBlock = done
	c.getRange(rd, lbn, rd.one[:], meta)
}

// GetRange fills out with the len(out) pinned blocks starting at lbn,
// reading missing runs from the lower store in as few requests as possible
// (the read-ahead behaviour the paper tunes so the average disk request
// matches the NFS request size). out is the caller's and must stay untouched
// until done; on failure nothing is left pinned and out is cleared.
func (c *Cache) GetRange(lbn int64, out []*Block, meta bool, done func(error)) {
	if len(out) == 0 {
		done(fmt.Errorf("buffercache: empty range"))
		return
	}
	if c.resident(lbn, out) {
		for _, b := range out {
			c.hit(b)
		}
		done(nil)
		c.evictForRoom()
		return
	}
	rd := c.read()
	rd.done = done
	c.getRange(rd, lbn, out, meta)
}

// read is the recycled record of one Get or GetRange that is not fully
// resident: the caller's blocks and completion, and how many fills it still
// waits for. A record never leaves its Cache and retires before the caller's
// completion runs.
type read struct {
	netbuf.Recycled
	c       *Cache
	out     []*Block
	one     [1]*Block // out for Get
	waiting int
	failed  error
	// done is GetRange's completion, doneBlock Get's.
	done      func(error)
	doneBlock func(*Block, error)
}

// read takes a blank record off the free list.
func (c *Cache) read() *read {
	if rd := c.reads.Take(); rd != nil {
		return rd
	}
	return &read{c: c}
}

// waiter is one caller parked on a block whose fill is in flight: slot idx
// of a read, or a GetForWrite caller's completion.
type waiter struct {
	rd   *read
	idx  int
	done func(*Block, error)
}

// wake hands the filled (or, with err, dropped) block to the waiter. A
// GetForWrite caller hears a failure with nil, its pin released here; the
// failed read's own pin outlives every waiter's, so this is never the last.
func (w waiter) wake(b *Block, err error) {
	if w.rd == nil {
		if err != nil {
			b.pins--
			b = nil
		}
		w.done(b, err)
		return
	}
	w.rd.out[w.idx] = b
	w.rd.finishOne(err)
}

// getRange pins the blocks of rd.out, parking on fills in flight and
// reading each missing run.
func (c *Cache) getRange(rd *read, lbn int64, out []*Block, meta bool) {
	rd.out = out
	rd.waiting = 1 // guard so synchronous hits don't complete early
	count := len(out)
	i := 0
	for i < count {
		cur := lbn + int64(i)
		if b, ok := c.blocks[cur]; ok {
			out[i] = b
			if b.loaded {
				c.hit(b)
			} else {
				// Fill in flight: wait for it.
				b.pins++
				rd.waiting++
				b.pending = append(b.pending, waiter{rd: rd, idx: i})
			}
			i++
			continue
		}
		// Miss: find the contiguous missing run.
		start := i
		for i < count {
			if _, ok := c.blocks[lbn+int64(i)]; ok {
				break
			}
			i++
		}
		runLBN := lbn + int64(start)
		runLen := i - start
		for j := 0; j < runLen; j++ {
			nb := c.insert(runLBN+int64(j), meta)
			nb.pins++
			out[start+j] = nb
		}
		c.Stats.Misses += uint64(runLen)
		rd.waiting++
		c.readRun(rd, runLBN, runLen, meta)
	}
	rd.finishOne(nil) // release the guard
	c.evictForRoom()
}

// finishOne counts one fill in; after the last, the record retires and the
// caller hears.
func (rd *read) finishOne(err error) {
	if err != nil && rd.failed == nil {
		rd.failed = err
	}
	rd.waiting--
	if rd.waiting > 0 {
		return
	}
	c, failed := rd.c, rd.failed
	if failed != nil {
		for _, b := range rd.out {
			if b != nil {
				c.Unpin(b)
			}
		}
		clear(rd.out)
	}
	done, doneBlock, b := rd.done, rd.doneBlock, rd.one[0]
	*rd = read{Recycled: rd.Recycled, c: c}
	c.reads.Put(rd)
	if doneBlock != nil {
		doneBlock(b, failed)
		return
	}
	done(failed)
}

// resident fills out with the blocks starting at lbn and reports whether
// every one is resident and loaded (nothing is pinned or counted yet).
func (c *Cache) resident(lbn int64, out []*Block) bool {
	for i := range out {
		b, ok := c.blocks[lbn+int64(i)]
		if !ok || !b.loaded {
			return false
		}
		out[i] = b
	}
	return true
}

// run is the recycled record of one missing run on its way from the lower
// store into its placeholder blocks: the read it fills, the arriving
// payload and the per-block fill plan, whose capacity the record keeps.
// The fill waits behind its CPU charge, whose completion is posted through
// the cache's node: a kill in between ends that node's sim.Life, which
// drops the completion and with it the fill. onData and onFilled are bound once;
// the record retires before the read hears.
type run struct {
	netbuf.Recycled
	c     *Cache
	rd    *read
	lbn   int64
	count int
	data  *netbuf.Chain
	fills []fill

	onData   func(*netbuf.Chain, error)
	onFilled func()
}

// fill is one placeholder's share of a run's payload: the bytes at off, or
// the key when a marked junk window starts there.
type fill struct {
	b       *Block
	off     int
	key     lkey.Key
	logical bool
}

// readRun fetches one missing run for rd.
func (c *Cache) readRun(rd *read, lbn int64, count int, meta bool) {
	r := c.runs.Take()
	if r == nil {
		r = &run{c: c}
		r.onData, r.onFilled = r.arrived, r.filled
	}
	r.rd, r.lbn, r.count = rd, lbn, count
	c.lower.ReadAt(lbn, count, meta, r.onData)
}

// retire hands the record back to the cache and returns the read it served.
func (r *run) retire() *read {
	c, rd := r.c, r.rd
	clear(r.fills)
	*r = run{Recycled: r.Recycled, c: c, fills: r.fills[:0], onData: r.onData, onFilled: r.onFilled}
	c.runs.Put(r)
	return rd
}

// arrived takes the lower store's answer.
func (r *run) arrived(data *netbuf.Chain, err error) {
	c := r.c
	if err != nil {
		for j := 0; j < r.count; j++ {
			if b, ok := c.blocks[r.lbn+int64(j)]; ok && !b.loaded {
				waiters := b.pending
				b.pending = nil
				c.drop(b)
				for _, w := range waiters {
					w.wake(b, err)
				}
			}
		}
		r.retire().finishOne(err)
		return
	}
	r.plan(data)
}

// plan works out moving the arriving payload into the placeholder blocks: one
// physical copy for real data (charged once for the run, the Table 2
// "network to buffer cache" stage), or per-block key copies for logical
// data.
func (r *run) plan(data *netbuf.Chain) {
	c := r.c
	if data.Len() < r.count*c.bs {
		err := fmt.Errorf("buffercache: short read: %d bytes for %d blocks", data.Len(), r.count)
		data.Release()
		r.retire().finishOne(err)
		return
	}
	physBytes := 0
	logical := 0
	wins, w, pos := data.Bufs(), 0, 0 // the first non-empty window at or past off starts at pos
	for j := 0; j < r.count; j++ {
		off := j * c.bs
		for w < len(wins) && (pos < off || wins[w].Len() == 0) {
			pos += wins[w].Len()
			w++
		}
		b, ok := c.blocks[r.lbn+int64(j)]
		if !ok {
			continue
		}
		f := fill{b: b, off: off}
		if pos == off {
			f.key, f.logical = lkey.Of(wins[w])
		}
		r.fills = append(r.fills, f)
		if f.logical {
			logical++
		} else {
			physBytes += c.bs
		}
	}
	var cost sim.Duration
	if physBytes > 0 {
		c.node.Copies.AddPhysical(physBytes)
		cost += c.node.Cost.CopyCost(physBytes)
	}
	for k := 0; k < logical; k++ {
		c.node.Copies.AddLogical()
		cost += c.node.Cost.LogicalCopyNs
	}
	r.data = data
	c.node.Charge(cost, r.onFilled)
}

// filled copies the payload (or keys) into the blocks once the CPU has
// served the copy, and wakes every waiter.
func (r *run) filled() {
	c, data := r.c, r.data
	for _, f := range r.fills {
		if f.logical {
			c.SetKey(f.b, f.key)
		} else {
			data.GatherRange(f.off, c.Page(f.b))
		}
		f.b.loaded = true
		waiters := f.b.pending
		f.b.pending = nil
		for _, w := range waiters {
			w.wake(f.b, nil)
		}
	}
	data.Release()
	r.retire().finishOne(nil)
}

// GetForWrite returns a pinned block about to be fully overwritten: if
// absent it is created without reading the lower store (no-fill), the
// optimization every kernel applies to whole-block writes. A new data block
// has no page yet; the writer calls SetKey or Page. A caller that waited on
// a fill that failed hears the error with a nil block and holds no pin.
func (c *Cache) GetForWrite(lbn int64, meta bool, done func(*Block, error)) {
	if b, ok := c.blocks[lbn]; ok {
		if b.loaded {
			c.hit(b)
			done(b, nil)
			return
		}
		b.pins++
		b.pending = append(b.pending, waiter{done: done})
		return
	}
	b := c.insert(lbn, meta)
	b.pins++
	b.loaded = true
	c.Stats.Misses++
	c.evictForRoom()
	done(b, nil)
}

// MarkDirty records a modification to a pinned block and stamps it (see
// flush.written). The 0→dirty transition feeds the dirty gauge and arms the
// background flusher. A block Drop detached while pinned takes the
// modification with it, as Drop discards dirty bytes.
func (c *Cache) MarkDirty(b *Block) {
	if b.next == nil {
		return
	}
	c.seq++
	b.stamp = c.seq
	if !b.Dirty {
		b.Dirty = true
		c.noteDirty()
		c.fl.onDirty(b)
	}
	c.touch(b)
}

// Unpin releases a caller's pin. The last pin on a block dropped while
// pinned (by Drop, or by a failed read in run.arrived) reclaims it, unless
// its batch is still in flight (flush.written reclaims it then).
func (c *Cache) Unpin(b *Block) {
	if b.pins > 0 {
		b.pins--
		if b.pins == 0 && b.next == nil && !b.flushing {
			c.reclaim(b)
		}
	}
	c.evictForRoom()
}

// Drop invalidates a block (file truncation/removal, or a remote-remap
// invalidation). Dirty contents are discarded. A pinned or mid-flush block
// is detached immediately — cancel-or-complete: a read holding it composes
// its reply from it and the in-flight write finishes against the orphaned
// buffer (each holds the pointer, not the map entry), future lookups miss,
// and the invalidation resolves now. Only a block still filling returns
// false; callers that must win retry once the fill lands.
func (c *Cache) Drop(lbn int64) bool {
	b, ok := c.blocks[lbn]
	if !ok {
		return true
	}
	if !b.loaded {
		return false
	}
	c.recycle(b)
	return true
}

// Pinned returns the resident, loaded block at lbn while a caller pins it,
// else nil.
func (c *Cache) Pinned(lbn int64) *Block {
	if b, ok := c.blocks[lbn]; ok && b.loaded && b.pins > 0 {
		return b
	}
	return nil
}

// KeyAt returns the key of the block at lbn and true while a logical block,
// or one still filling (the zero key: it has none yet), is there. With
// Evict it is the NCache module's view of the cache (ncache.FSCache).
func (c *Cache) KeyAt(lbn int64) (lkey.Key, bool) {
	b, ok := c.blocks[lbn]
	if !ok || b.loaded && !b.Logical {
		return lkey.Key{}, false
	}
	return b.Key, true
}

// Evict drops the block at lbn, which KeyAt found, unless it is held or
// dirty with bytes not yet on their way down, and reports whether it did.
// Unlike eviction it takes a mid-flush block, which Drop detaches: the
// module asks only for a block whose entry's bytes are already on storage.
func (c *Cache) Evict(lbn int64) bool {
	b := c.blocks[lbn]
	if b.held() || b.Dirty && !b.flushing {
		return false
	}
	c.recycle(b)
	return true
}
