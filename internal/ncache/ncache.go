// Package ncache implements the paper's contribution: the network-centric
// buffer cache. Payloads that pass through the server are kept in their
// network-ready form (chains of the original wire buffers) and indexed two
// ways:
//
//   - the LBN cache holds data that arrived as iSCSI read responses,
//     keyed by storage logical block number (§3.4);
//   - the FHO cache holds data that arrived as NFS write requests,
//     keyed by file handle + offset.
//
// Upper layers see only key-carrying junk blocks (package lkey) and move
// them with logical copies. The module's three hooks sit exactly where
// Table 1 puts the kernel modifications:
//
//   - CaptureLBN — the iSCSI initiator's receive path;
//   - CaptureFHO — the NFS server's write-request receive path;
//   - SubstituteMessage — the transmit path of outgoing replies;
//   - WriteOut — the iSCSI initiator's transmit path, where dirty
//     file-system buffers flush and FHO entries remap to LBN entries.
//
// Entries are managed LRU with the paper's policy: clean chunks are
// reclaimed from the cold end first; dirty FHO chunks are pinned until the
// file system's own flush remaps them and that write lands (the paper sizes
// the FS cache small so this always happens before NCache needs the space).
package ncache

import (
	"ncache/internal/lkey"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
)

// EntryOverheadBytes models the per-entry metadata footprint (hash links,
// LRU links, buffer descriptors). It is what shrinks the effective cache at
// large working sets in Figure 6(a).
const EntryOverheadBytes = 512

// Config sizes and tunes a module.
type Config struct {
	// CapacityBytes bounds payload + metadata held by the cache.
	CapacityBytes int64
	// BlockSize is the file-system block size entries are split into.
	BlockSize int
	// DisableRemap turns off FHO→LBN remapping (ablation: flushes then
	// evict FHO entries instead of re-indexing them).
	DisableRemap bool
}

// Stats counts module activity.
type Stats struct {
	Captures      uint64 // blocks captured into the cache
	LBNHits       uint64
	FHOHits       uint64
	SubstMisses   uint64 // stamped blocks with no cache entry (junk passes)
	Remaps        uint64
	Evictions     uint64
	PinnedSkips   uint64 // eviction passes blocked by dirty FHO entries
	Substitutions uint64
	// SubstBufs counts wire buffers spliced by substitutions (the unit
	// the driver-hook cost scales with).
	SubstBufs uint64
	// L2Hits/L2Misses count file-system cache misses served (or not)
	// directly from the network-centric cache without storage traffic —
	// the second-level-cache role of §3.4.
	L2Hits   uint64
	L2Misses uint64
}

// entry is one cached block. It carries its own links in the module's LRU
// ring while it is indexed, and goes to the module's free list when it is
// evicted or replaced.
type entry struct {
	netbuf.Recycled
	key        lkey.Key
	chain      *netbuf.Chain
	partial    netbuf.Partial // inherited payload checksum
	dirty      uint64         // the capture's seq until a flush of it lands; 0 once clean
	bytes      int
	prev, next *entry
}

type fhoKey struct {
	fh  lkey.FH
	off uint64
}

// Module is one node's network-centric cache.
type Module struct {
	node *simnet.Node
	cfg  Config

	lbn map[int64]*entry
	fho map[fhoKey]*entry
	// lru is the sentinel of the LRU ring: lru.next is the most recently
	// used entry, lru.prev the eviction candidate.
	lru  entry
	free netbuf.FreeList[*entry]
	slab netbuf.Slab[entry] // carves entries when free is empty
	used int64
	seq  uint64 // counts FHO captures

	// Stats is the module's activity counters.
	Stats Stats
}

// New creates a module on a node.
func New(node *simnet.Node, cfg Config) *Module {
	m := &Module{
		node: node,
		cfg:  cfg,
		lbn:  make(map[int64]*entry),
		fho:  make(map[fhoKey]*entry),
	}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// chargeLookup bills one hash operation.
func (m *Module) chargeLookup() {
	trace.Account(m.node.Eng, trace.LNCache, m.node.Cost.NCacheLookupNs)
	m.node.Charge(m.node.Cost.NCacheLookupNs, nil)
}

// chargeMgmt bills per-block cache management (insert/evict/LRU).
func (m *Module) chargeMgmt(blocks int) {
	cost := sim.Duration(blocks) * m.node.Cost.NCacheMgmtNs
	trace.Account(m.node.Eng, trace.LNCache, cost)
	m.node.Charge(cost, nil)
}

// pushFront links an entry in at the hot end.
func (m *Module) pushFront(e *entry) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes an entry out of the LRU ring.
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// touch moves an entry to the hot end.
func (m *Module) touch(e *entry) {
	e.unlink()
	m.pushFront(e)
}

// insert adds an entry for chain, taking ownership of it, and evicts as
// needed. The entry comes off the free list when one is there.
func (m *Module) insert(key lkey.Key, chain *netbuf.Chain, dirty uint64) {
	e := m.free.Take()
	if e == nil {
		e = m.slab.New()
	}
	*e = entry{
		key:     key,
		chain:   chain,
		partial: netbuf.PartialOfChain(chain),
		dirty:   dirty,
		bytes:   chain.Len(),
	}
	m.Stats.Captures++
	m.pushFront(e)
	m.used += int64(e.bytes + EntryOverheadBytes)
	m.index(e)
	m.evict()
}

// index registers an entry under all identities its key carries, replacing
// any other entry there: newer data over a stale LBN entry, or a client
// rewrite of an unflushed block (the Table 2 "overwritten" case).
func (m *Module) index(e *entry) {
	if e.key.Flags&lkey.HasLBN != 0 {
		if old, ok := m.lbn[e.key.LBN]; ok && old != e {
			m.remove(old)
		}
		m.lbn[e.key.LBN] = e
	}
	if e.key.Flags&lkey.HasFHO != 0 {
		k := fhoKey{fh: e.key.FH, off: e.key.Off}
		if old, ok := m.fho[k]; ok && old != e {
			m.remove(old)
		}
		m.fho[k] = e
	}
}

// unindex removes an entry from all identity maps.
func (m *Module) unindex(e *entry) {
	if e.key.Flags&lkey.HasLBN != 0 && m.lbn[e.key.LBN] == e {
		delete(m.lbn, e.key.LBN)
	}
	if e.key.Flags&lkey.HasFHO != 0 {
		k := fhoKey{fh: e.key.FH, off: e.key.Off}
		if m.fho[k] == e {
			delete(m.fho, k)
		}
	}
}

// remove drops an entry entirely, releasing its chain, and recycles it: the
// caller must not touch e again.
func (m *Module) remove(e *entry) {
	m.free.Put(e)
	m.unindex(e)
	e.unlink()
	m.used -= int64(e.bytes + EntryOverheadBytes)
	e.chain.Release()
	*e = entry{Recycled: e.Recycled}
}

// evict reclaims cold entries until occupancy fits capacity. Dirty entries
// (unremapped FHO data — the only copy of client writes) are pinned.
func (m *Module) evict() {
	for e := m.lru.prev; e != &m.lru && m.used > m.cfg.CapacityBytes; {
		prev := e.prev
		if e.dirty != 0 {
			m.Stats.PinnedSkips++
		} else {
			m.Stats.Evictions++
			m.remove(e)
		}
		e = prev
	}
}

// CaptureLBN is the iSCSI read hook: it captures the payload of a completed
// regular-data READ into the LBN cache, block by block, and returns the
// key-carrying junk the upper layers cache instead. Payload bytes are not
// copied — the entries hold windows onto the wire buffers, so the arriving
// payload buffer, the cached buffer, and the buffer later sent by
// SubstituteMessage are the same physical memory. The hook takes
// ownership of data and releases it; the cache owns the captured sub-chains
// until eviction.
func (m *Module) CaptureLBN(lba int64, blocks int, data *netbuf.Chain) *netbuf.Chain {
	if blocks <= 0 || data.Len() < blocks*m.cfg.BlockSize {
		return data
	}
	out := m.node.BlkPool.NewChain(0)
	for i := 0; i < blocks; i++ {
		sub, _ := data.SubChain(i*m.cfg.BlockSize, m.cfg.BlockSize) // in range: checked above
		key := lkey.ForLBN(lba + int64(i))
		sub.SetOwner("ncache.lbn")
		m.insert(key, sub, 0)
		out.AppendChain(lkey.StampChainPool(m.node.BlkPool, key, m.cfg.BlockSize))
	}
	m.chargeMgmt(blocks)
	data.Release()
	return out
}

// CaptureFHO is the NFS write-request hook: it captures a block-aligned
// write payload into the FHO cache and returns stamped junk for the file
// system to cache. Non-block-aligned payloads pass through untouched (the
// caller falls back to physical copying, as the paper's small-request path
// does).
func (m *Module) CaptureFHO(fh lkey.FH, off uint64, data *netbuf.Chain) *netbuf.Chain {
	bs := m.cfg.BlockSize
	n := data.Len()
	if n == 0 || n%bs != 0 || off%uint64(bs) != 0 {
		return data
	}
	blocks := n / bs
	out := m.node.BlkPool.NewChain(0)
	m.seq++
	for i := 0; i < blocks; i++ {
		sub, _ := data.SubChain(i*bs, bs) // in range: n is blocks*bs
		key := lkey.ForFHO(fh, off+uint64(i*bs))
		sub.SetOwner("ncache.fho")
		m.insert(key, sub, m.seq)
		out.AppendChain(lkey.StampChainPool(m.node.BlkPool, key, bs))
	}
	m.chargeMgmt(blocks)
	data.Release()
	return out
}

// lookup finds the freshest entry for a key: FHO first (client writes are
// always newer), then LBN (§3.4).
func (m *Module) lookup(key lkey.Key) *entry {
	if key.Flags&lkey.HasFHO != 0 {
		if e, ok := m.fho[fhoKey{fh: key.FH, off: key.Off}]; ok {
			m.Stats.FHOHits++
			return e
		}
	}
	if key.Flags&lkey.HasLBN != 0 {
		if e, ok := m.lbn[key.LBN]; ok {
			m.Stats.LBNHits++
			return e
		}
	}
	return nil
}

// SubstituteMessage is the transmit hook: it scans an outgoing message for
// junk blocks (windows lkey.Of finds a key in) and splices in clones of the
// cached chains. Blocks whose entries are gone (or baseline junk with no
// identities) pass through unchanged. The module owns the input chain and returns the chain to send.
func (m *Module) SubstituteMessage(payload *netbuf.Chain) *netbuf.Chain {
	out := m.node.TxPool.NewChain(0)
	substituted := 0
	clonedBufs := 0
	// Checksum inheritance (§1): compose the output's transport-checksum
	// partial from the per-entry partials captured at receive time, so a
	// software-checksum transmit path never re-walks substituted payload.
	// Composition needs 16-bit alignment; block payloads keep it.
	var ck netbuf.Partial
	even := true
	addWalked := func(p []byte) {
		ck.AddBytes(p)
		if len(p)%2 == 1 {
			even = !even
		}
	}
	for _, w := range payload.Bufs() {
		key, ok := lkey.Of(w)
		if !ok || key.Flags == 0 {
			addWalked(w.Bytes())
			out.AppendClone(w)
			continue
		}
		m.chargeLookup()
		e := m.lookup(key)
		if e == nil {
			m.Stats.SubstMisses++
			out.AppendClone(w)
			continue
		}
		m.touch(e)
		// Splice in clones of the cached wire buffers, honoring the
		// key's sub-block offset (unaligned reads); pad to the junk
		// block's length so message framing is preserved.
		want := w.Len()
		var cl *netbuf.Chain
		avail := e.chain.Len() - int(key.SubOff)
		take := want
		if take > avail {
			take = avail
		}
		if take < 0 {
			take = 0
		}
		if key.SubOff == 0 && take == e.chain.Len() {
			cl = e.chain.Clone()
		} else {
			cl, _ = e.chain.SubChain(int(key.SubOff), take) // in range: take is clamped to avail
		}
		clonedBufs += cl.NumBufs()
		clLen := cl.Len()
		if even && key.SubOff == 0 && take == e.chain.Len() {
			// Whole-entry splice at even offset: inherit the stored
			// partial without touching payload bytes.
			ck = netbuf.Combine(ck, e.partial)
			if take%2 == 1 {
				even = !even
			}
		} else {
			for _, cw := range cl.Bufs() {
				addWalked(cw.Bytes())
			}
		}
		out.AppendChain(cl)
		if short := want - clLen; short > 0 {
			pb := m.node.BlkPool.GetSized(short, 0)
			addWalked(pb.Bytes())
			out.Append(pb)
		}
		substituted++
	}
	// Pass-through windows took their own reference above; dropping the
	// input's releases the substituted junk and retires the chain struct.
	payload.Release()
	if substituted > 0 {
		m.Stats.Substitutions += uint64(substituted)
		m.Stats.SubstBufs += uint64(clonedBufs)
		// The substitution cost scales with the wire buffers spliced —
		// the driver-level hook touches every outgoing packet.
		m.node.Charge(sim.Duration(clonedBufs)*m.node.Cost.NCacheSubstNs, nil)
		out.SetPartial(ck)
	}
	return out
}

// WriteOut is the iSCSI write hook: when the file system flushes dirty
// buffers, the outgoing payload (exactly blocks blocks) is stamped junk.
// The module substitutes the real cached data and — for dirty FHO
// entries — performs the remap: the entry is re-indexed under its now-known
// LBN, replacing any stale LBN entry. It stays dirty until the write lands.
// It returns the chain to transmit, remapped with the LBNs it re-indexed
// appended, and the mark the write carries: once the write commits the
// caller hands both to Landed and announces the LBNs to peer servers.
func (m *Module) WriteOut(lba int64, blocks int, data *netbuf.Chain, remapped []int64) (*netbuf.Chain, []int64, uint64) {
	bs := m.cfg.BlockSize
	out := m.node.BlkPool.NewChain(0)
	touched := 0
	for i := 0; i < blocks; i++ {
		sub, _ := data.SubChain(i*bs, bs) // in range: data holds blocks*bs bytes
		key, isKey := lkey.Of(sub.Bufs()[0])
		if !isKey || key.Flags == 0 {
			out.AppendChain(sub)
			continue
		}
		m.chargeLookup()
		e := m.lookup(key)
		if e == nil {
			m.Stats.SubstMisses++
			out.AppendChain(sub)
			continue
		}
		touched++
		blockLBN := lba + int64(i)
		if e.key.Flags&lkey.HasFHO != 0 && e.dirty != 0 {
			if m.cfg.DisableRemap {
				// Ablation: flush the data but drop the entry.
				out.AppendChain(e.chain.Clone())
				m.remove(e)
				sub.Release()
				continue
			}
			// Remap FHO → LBN (§3.4): newer FHO data replaces any
			// stale LBN entry.
			m.unindex(e)
			e.key = e.key.WithLBN(blockLBN)
			e.key.Flags |= lkey.HasFHO
			m.index(e)
			m.Stats.Remaps++
			remapped = append(remapped, blockLBN)
		}
		m.touch(e)
		out.AppendChain(e.chain.Clone())
		sub.Release()
	}
	if touched > 0 {
		m.node.Charge(sim.Duration(touched)*m.node.Cost.NCacheSubstNs, nil)
	}
	data.Release()
	return out, remapped, m.seq
}

// Landed settles a write that reached storage, given WriteOut's remapped and
// mark: entries indexed at lbns turn clean, and reclaimable, unless captured
// after mark. A failed write needs no call: its entries stay dirty.
func (m *Module) Landed(lbns []int64, mark uint64) {
	for _, lbn := range lbns {
		if e, ok := m.lbn[lbn]; ok && e.dirty <= mark {
			e.dirty = 0
		}
	}
	m.evict()
}

// ServeRead attempts to satisfy a block-read entirely from the LBN cache —
// the second-level-cache role (§3.4): a file-system buffer-cache miss whose
// blocks are all resident costs hash lookups and key copies, not an iSCSI
// round trip. It returns stamped junk (what the buffer cache stores) and
// true on a full hit; partial hits are treated as misses.
func (m *Module) ServeRead(lba int64, blocks int) (*netbuf.Chain, bool) {
	for i := 0; i < blocks; i++ {
		if _, ok := m.lbn[lba+int64(i)]; !ok {
			m.Stats.L2Misses++
			m.node.Charge(m.node.Cost.NCacheLookupNs, nil)
			return nil, false
		}
	}
	out := m.node.BlkPool.NewChain(0)
	for i := 0; i < blocks; i++ {
		m.touch(m.lbn[lba+int64(i)])
		out.AppendChain(lkey.StampChainPool(m.node.BlkPool, lkey.ForLBN(lba+int64(i)), m.cfg.BlockSize))
	}
	m.Stats.L2Hits += uint64(blocks)
	m.Stats.LBNHits += uint64(blocks)
	m.node.Charge(sim.Duration(blocks)*m.node.Cost.NCacheLookupNs, nil)
	return out, true
}

// Materialize copies a cached entry's payload into dst (a physical copy the
// caller charges), used when a logical block must become real again — e.g.
// a partial overwrite of a key-carrying buffer. It reports whether the
// entry was found.
func (m *Module) Materialize(key lkey.Key, dst []byte) bool {
	e := m.lookup(key)
	if e == nil {
		return false
	}
	m.touch(e)
	e.chain.Gather(dst)
	return true
}

// InvalidateLBN drops an LBN entry (file deletion / block reuse).
func (m *Module) InvalidateLBN(lbn int64) {
	if e, ok := m.lbn[lbn]; ok && e.dirty == 0 {
		m.remove(e)
	}
}

// DropClean releases every clean entry, returning the buffers the cache
// pins back to their pools (shutdown, or a full invalidation). Dirty FHO
// entries — the only copy of unflushed client writes — stay. Returns the
// number of entries dropped.
func (m *Module) DropClean() int {
	dropped := 0
	for e := m.lru.prev; e != &m.lru; {
		prev := e.prev
		if e.dirty == 0 {
			m.remove(e)
			dropped++
		}
		e = prev
	}
	return dropped
}

// PinnedBytes reports bytes held by dirty (unremapped) FHO entries.
func (m *Module) PinnedBytes() int64 {
	var n int64
	for _, e := range m.fho { // det: commutative (sum)
		if e.dirty != 0 {
			n += int64(e.bytes + EntryOverheadBytes)
		}
	}
	return n
}
