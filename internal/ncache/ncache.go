// Package ncache implements the paper's contribution: the network-centric
// buffer cache. Payloads that pass through the server are kept in their
// network-ready form (chains of the original wire buffers) and indexed two
// ways: the LBN cache holds iSCSI read responses by storage logical block
// number (§3.4), the FHO cache NFS write requests by file handle + offset.
//
// Upper layers see only key-carrying junk blocks (package lkey) and move
// them with logical copies. The hooks sit where Table 1 puts the kernel
// modifications: CaptureLBN on the iSCSI initiator's receive path,
// CaptureFHO on the NFS server's write-request receive path,
// SubstituteMessage on the reply transmit path, and WriteOut on the
// initiator's transmit path, where dirty file-system buffers flush and FHO
// entries remap to LBN entries.
//
// Entries are managed LRU with the paper's policy: clean chunks are
// reclaimed from the cold end first; dirty FHO chunks are pinned until the
// file system's own flush remaps them and that write lands (the paper sizes
// the FS cache small for this). One invariant ties the module to the FS
// cache above it: every logical FS-cache block's key resolves to a live
// entry. Where an entry dies (reclaim), the block naming it dies too.
package ncache

import (
	"fmt"

	"ncache/internal/lkey"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
)

// EntryOverheadBytes models the per-entry metadata (hash and LRU links,
// buffer descriptors) that shrinks the cache at Figure 6(a)'s large sets.
const EntryOverheadBytes = 512

// Config sizes and tunes a module.
type Config struct {
	// CapacityBytes bounds payload + metadata held by the cache.
	CapacityBytes int64
	// BlockSize is the file-system block size entries are split into.
	BlockSize int
	// DisableRemap turns off FHO→LBN remapping (ablation: a flushed FHO
	// entry dies with its FS-cache block once the write lands).
	DisableRemap bool
}

// Stats counts module activity.
type Stats struct {
	Captures uint64 // blocks captured into the cache
	LBNHits  uint64
	FHOHits  uint64
	// SubstMisses stays zero (a key always resolves): an inert shim that
	// benchmarks/ncmark reads (DESIGN.md §11).
	SubstMisses uint64
	Remaps      uint64
	Evictions   uint64
	// PinnedSkips counts entries eviction passed over (see reclaim).
	PinnedSkips   uint64
	Substitutions uint64
	// SubstBufs counts wire buffers spliced (the driver-hook cost's unit).
	SubstBufs uint64
	// L2Hits/L2Misses count FS-cache misses served (or not) with no
	// storage traffic: the second-level-cache role of §3.4.
	L2Hits   uint64
	L2Misses uint64
}

// entry is one cached block, linked into the module's LRU ring while
// indexed and on its free list once evicted or replaced.
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

// FSCache is the file-system cache above the module (buffercache.Cache):
// KeyAt returns the key of the block at lbn while a logical block, or one
// still filling (the zero key), is there; Evict drops the block at lbn
// unless its cache could not evict it itself, and reports whether it did.
type FSCache interface {
	KeyAt(lbn int64) (lkey.Key, bool)
	Evict(lbn int64) bool
}

// Module is one node's network-centric cache.
type Module struct {
	node *simnet.Node
	cfg  Config
	fs   FSCache // see Attach
	lbn  map[int64]*entry
	fho  map[fhoKey]*entry
	lru  entry // the LRU ring's sentinel: next is the hottest, prev the victim
	free netbuf.FreeList[*entry]
	slab netbuf.Slab[entry] // carves entries when free is empty
	used int64
	seq  uint64 // counts FHO captures

	Stats Stats // the module's activity counters
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

// Attach links the module to the FS cache whose logical blocks hold its keys
// (a kernel benchmark's module has none).
func (m *Module) Attach(fs FSCache) { m.fs = fs }

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
// rewrite of an unflushed block (the Table 2 "overwritten" case). A rewrite
// of a remapped block takes only the FHO identity: the old entry keeps its
// LBN, and the bytes storage holds, for an FS-cache block filling from it.
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
			if old.key.Flags&lkey.HasLBN != 0 {
				old.key.Flags &^= lkey.HasFHO
			} else {
				m.remove(old)
			}
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

// reclaim is where entries die: it reports whether clean entry e went,
// taking along the FS-cache block at its LBN when that block's key resolves
// to e (every clean entry has an LBN: an FHO entry turns clean once its
// remap lands). Dirty data stays, as does an entry whose block its cache
// cannot evict — one still filling may yet take e's key.
func (m *Module) reclaim(e *entry) bool {
	if e.dirty != 0 {
		return false
	}
	if m.fs != nil {
		k, ok := m.fs.KeyAt(e.key.LBN)
		if named, _ := m.find(k); ok && (k.Flags == 0 || named == e) && !m.fs.Evict(e.key.LBN) {
			return false
		}
	}
	m.remove(e)
	return true
}

// evict reclaims cold entries until occupancy fits capacity.
func (m *Module) evict() {
	for e := m.lru.prev; e != &m.lru && m.used > m.cfg.CapacityBytes; {
		prev := e.prev
		if m.reclaim(e) {
			m.Stats.Evictions++
		} else {
			m.Stats.PinnedSkips++
		}
		e = prev
	}
}

// CaptureLBN is the iSCSI read hook: it captures a completed regular-data
// READ into the LBN cache, block by block, and returns the key-carrying junk
// the upper layers cache instead. No byte is copied: the entries hold
// windows onto the wire buffers, the memory SubstituteMessage later sends.
// The hook takes ownership of data.
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
// system to cache. Other payloads pass through untouched (the caller falls
// back to physical copying, as the paper's small-request path does).
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

// find returns the freshest entry for a key (nil if none) and whether the
// FHO index held it: FHO first (client writes are always newer), then LBN.
func (m *Module) find(key lkey.Key) (*entry, bool) {
	if key.Flags&lkey.HasFHO != 0 {
		if e, ok := m.fho[fhoKey{fh: key.FH, off: key.Off}]; ok {
			return e, true
		}
	}
	if key.Flags&lkey.HasLBN != 0 {
		if e, ok := m.lbn[key.LBN]; ok {
			return e, false
		}
	}
	return nil, false
}

// resolve returns the entry a logical block's key names and books the hit.
// A miss breaks the invariant (reclaim) and panics, as lkey.Of does for a
// marked buffer that has lost its key.
func (m *Module) resolve(key lkey.Key) *entry {
	e, fho := m.find(key)
	switch {
	case e == nil:
		panic(fmt.Sprintf("ncache: key %+v names no entry: a logical block outlived its entry", key))
	case fho:
		m.Stats.FHOHits++
	default:
		m.Stats.LBNHits++
	}
	return e
}

// SubstituteMessage is the transmit hook: it splices clones of the cached
// chains in for an outgoing message's junk blocks (windows lkey.Of finds a
// key in), taking the input chain and returning the one to send. No reply
// pins its entries: none can die between composition and this hook, as the
// NFS daemon's replyChain, replyRead, Server.send and tx filter run in one
// event, and so do kHTTPd's replyChain and its call here.
func (m *Module) SubstituteMessage(payload *netbuf.Chain) *netbuf.Chain {
	out := m.node.TxPool.NewChain(0)
	substituted := 0
	clonedBufs := 0
	// Checksum inheritance (§1): the output's transport-checksum partial
	// is composed from the entries' partials captured at receive time, so
	// no transmit path re-walks substituted payload (blocks keep alignment).
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
		if !ok {
			addWalked(w.Bytes())
			out.AppendClone(w)
			continue
		}
		m.chargeLookup()
		e := m.resolve(key)
		m.touch(e)
		// Splice from the key's sub-block offset (unaligned reads) as
		// many bytes as the junk holds, so the framing is preserved.
		whole := key.SubOff == 0 && w.Len() == e.chain.Len()
		var cl *netbuf.Chain
		if whole {
			cl = e.chain.Clone()
		} else {
			cl, _ = e.chain.SubChain(int(key.SubOff), w.Len()) // in range: the extent is within the block
		}
		clonedBufs += cl.NumBufs()
		if even && whole {
			// Whole block at even offset: inherit the stored partial.
			ck = netbuf.Combine(ck, e.partial)
		} else {
			for _, cw := range cl.Bufs() {
				addWalked(cw.Bytes())
			}
		}
		out.AppendChain(cl)
		substituted++
	}
	// Pass-through windows took their own reference above; dropping the
	// input's releases the substituted junk and retires the chain struct.
	payload.Release()
	if substituted > 0 {
		m.Stats.Substitutions += uint64(substituted)
		m.Stats.SubstBufs += uint64(clonedBufs)
		// The driver-level hook's cost scales with the buffers spliced.
		m.node.Charge(sim.Duration(clonedBufs)*m.node.Cost.NCacheSubstNs, nil)
		out.SetPartial(ck)
	}
	return out
}

// WriteOut is the iSCSI write hook: a flush's payload (exactly blocks
// blocks) is stamped junk, for which it substitutes the cached data, and a
// dirty FHO entry is remapped: re-indexed under its now-known LBN, replacing
// any stale LBN entry, and dirty until the write lands. It returns the chain
// to transmit, remapped with the LBNs it re-indexed appended, and the write's
// mark: once the write commits the caller hands both to Landed and announces
// the LBNs to peer servers.
func (m *Module) WriteOut(lba int64, blocks int, data *netbuf.Chain, remapped []int64) (*netbuf.Chain, []int64, uint64) {
	bs := m.cfg.BlockSize
	out := m.node.BlkPool.NewChain(0)
	touched := 0
	for i := 0; i < blocks; i++ {
		sub, _ := data.SubChain(i*bs, bs) // in range: data holds blocks*bs bytes
		key, isKey := lkey.Of(sub.Bufs()[0])
		if !isKey {
			out.AppendChain(sub)
			continue
		}
		m.chargeLookup()
		e := m.resolve(key)
		touched++
		blockLBN := lba + int64(i)
		if e.key.Flags&lkey.HasFHO != 0 && e.dirty != 0 {
			// Remap FHO → LBN (§3.4), with remapping disabled too, so
			// that Landed finds the entry to reclaim.
			m.unindex(e)
			e.key = e.key.WithLBN(blockLBN)
			e.key.Flags |= lkey.HasFHO
			m.index(e)
			if !m.cfg.DisableRemap {
				m.Stats.Remaps++
			}
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
// mark: entries at lbns captured by mark turn clean (reclaimed at once with
// remapping disabled). A failed write needs no call: its entries stay dirty.
func (m *Module) Landed(lbns []int64, mark uint64) {
	for _, lbn := range lbns {
		if e, ok := m.lbn[lbn]; ok && e.dirty <= mark {
			e.dirty = 0
			if m.cfg.DisableRemap {
				m.reclaim(e)
			}
		}
	}
	m.evict()
}

// ServeRead serves a block read from the LBN cache, the second-level role
// (§3.4): an FS-cache miss whose blocks are all resident costs lookups and
// key copies, not an iSCSI round trip. It returns stamped junk (what the
// buffer cache stores) and true on a full hit; a partial hit is a miss.
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

// Materialize copies the payload key names into dst (a physical copy the
// caller charges), for a logical block that must become real again.
func (m *Module) Materialize(key lkey.Key, dst []byte) {
	e := m.resolve(key)
	m.touch(e)
	e.chain.Gather(dst)
}

// InvalidateLBN reclaims the entry at lbn (a peer rewrote the block).
func (m *Module) InvalidateLBN(lbn int64) {
	if e, ok := m.lbn[lbn]; ok {
		m.reclaim(e)
	}
}

// DropClean reclaims every entry it can, returning the buffers the cache
// pins back to their pools (shutdown, or a full invalidation), and the
// number of entries dropped.
func (m *Module) DropClean() int {
	dropped := 0
	for e := m.lru.prev; e != &m.lru; {
		prev := e.prev
		if m.reclaim(e) {
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
