package extfs

import (
	"fmt"

	"ncache/internal/buffercache"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// FS is a mounted volume. All operations are asynchronous: they resolve
// through the buffer cache (and, on misses, the iSCSI initiator beneath it)
// and complete in simulation-event context. Per-block file system logic is
// charged to the node's CPU.
type FS struct {
	cache *buffercache.Cache
	node  *simnet.Node
	sb    SuperBlock

	blockHint int64
	inodeHint uint32

	// materializer converts a logical (key-carrying) block back to real
	// bytes when the file system must mutate it directly (EOF-boundary
	// zeroing). Only a server's hooks make a block logical, and every
	// server installs one.
	materializer func(*buffercache.Block)

	// walks is the free list of operation records (see walk).
	walks netbuf.FreeList[*walk]
}

// SetMaterializer installs the logical-block materializer.
func (fs *FS) SetMaterializer(fn func(*buffercache.Block)) { fs.materializer = fn }

// materialize turns a logical block into a real one.
func (fs *FS) materialize(b *buffercache.Block) {
	if b.Logical {
		fs.materializer(b)
	}
}

// Attr is the subset of file attributes NFS serves.
type Attr struct {
	Mode  uint16
	Links uint16
	Size  uint64
}

// attr extracts the served attributes from an inode.
func (in *Inode) attr() Attr { return Attr{Mode: in.Mode, Links: in.Links, Size: in.Size} }

// Extent is one piece of a read result: a byte range within a pinned cache
// block, or a hole. The caller must Unpin non-hole extents via Done.
type Extent struct {
	// Block is nil for holes.
	Block *buffercache.Block
	// Off and Len locate the range within the block (or the hole length).
	Off, Len int
}

// ReadResult carries a completed read. It is valid until Done.
type ReadResult struct {
	Extents []Extent
	// N is the number of bytes covered (may be less than requested at EOF).
	N int
	// EOF reports that the read reached end of file.
	EOF bool
	// Attr carries the file's attributes (NFS replies include them).
	Attr Attr

	w *walk // the operation record the result lives in
}

// Done unpins every extent and retires the read's record, the result with
// it. Call exactly once when finished with the data.
func (r *ReadResult) Done(fs *FS) {
	for _, e := range r.Extents {
		if e.Block != nil {
			fs.cache.Unpin(e.Block)
		}
	}
	if r.w != nil {
		r.w.retire()
	}
}

// Filler moves payload into a cache block during a write: blockOff/count
// locate the destination range in the block, srcOff the source range in the
// caller's payload. The filler performs (and its caller charges) the actual
// data movement — a physical copy into the block's page (Cache.Page), a key
// stamp (Cache.SetKey), or nothing, depending on the server configuration.
type Filler func(b *buffercache.Block, blockOff, count, srcOff int)

// Mount reads the superblock and returns a mounted FS.
func Mount(node *simnet.Node, cache *buffercache.Cache, done func(*FS, error)) {
	cache.Get(0, true, func(b *buffercache.Block, err error) {
		if err != nil {
			done(nil, fmt.Errorf("mount: %w", err))
			return
		}
		sb, serr := DecodeSuper(b.Data)
		cache.Unpin(b)
		if serr != nil {
			done(nil, serr)
			return
		}
		fs := &FS{
			cache:     cache,
			node:      node,
			sb:        sb,
			blockHint: sb.DataStart,
			inodeHint: RootIno + 1,
		}
		done(fs, nil)
	})
}

// charge bills per-block file system logic to the node CPU.
func (fs *FS) charge(blocks int, then func()) {
	fs.node.Charge(sim.Duration(blocks)*fs.node.Cost.FSBlockNs, then)
}

// ---- inode table access (walk.go holds the per-operation form) ----

// Getattr returns a file's attributes.
func (fs *FS) Getattr(ino uint32, done func(Attr, error)) {
	w := fs.walk()
	w.doneAttr = done
	w.loadInode(ino, (*walk).attrLoaded)
}

func (w *walk) attrLoaded() {
	if w.in.Mode == ModeFree {
		w.finish(ErrNotFound)
		return
	}
	w.finish(nil)
}

// ---- bitmap allocation ----

// bitOp is the bitmap operation a walk has in progress: a search for a clear
// bit to set (an allocation) or the clearing of one bit (a free).
type bitOp struct {
	start, len, limit int64 // the bitmap region in blocks, and its number of valid bits
	blk, tried        int64 // a search's bitmap block, and how many it has tried
	idx               int64 // the bit found, or the bit to clear
	inode, zeroed     bool  // an inode search; a block search for a pointer block
	next              func(*walk)
}

// allocInode reserves an inode number into w.bits.idx, then runs next.
func (w *walk) allocInode(next func(*walk)) {
	sb := &w.fs.sb
	w.bits = bitOp{start: sb.InodeBitmapStart, len: sb.InodeBitmapLen, limit: int64(sb.NumInodes),
		blk: int64(w.fs.inodeHint) / (BlockSize * 8), inode: true, next: next}
	w.tryBits()
}

// allocBlock reserves a data block into w.bits.idx — zeroed in cache when it
// is to be a pointer block — then runs next.
func (w *walk) allocBlock(zeroed bool, next func(*walk)) {
	sb := &w.fs.sb
	w.bits = bitOp{start: sb.BlockBitmapStart, len: sb.BlockBitmapLen, limit: sb.NumBlocks,
		blk: w.fs.blockHint / (BlockSize * 8), zeroed: zeroed, next: next}
	w.tryBits()
}

// tryBits loads the next bitmap block of a search.
func (w *walk) tryBits() {
	s := &w.bits
	if s.tried >= s.len {
		w.bitsFailed(ErrNoSpace)
		return
	}
	if s.blk >= s.len {
		s.blk = 0
	}
	w.pc = (*walk).bitsLoaded
	w.fs.cache.Get(s.start+s.blk, true, w.onBits)
}

// bitsLoaded sets the first clear bit of the block, or moves to the next.
func (w *walk) bitsLoaded() {
	s, b, cache := &w.bits, w.blk, w.fs.cache
	base := s.blk * BlockSize * 8
	for i, by := range b.Data {
		if by == 0xff {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			if by&(1<<bit) == 0 {
				idx := base + int64(i)*8 + int64(bit)
				if idx >= s.limit {
					break
				}
				b.Data[i] |= 1 << bit
				cache.MarkDirty(b)
				cache.Unpin(b)
				w.bitSet(idx)
				return
			}
		}
	}
	cache.Unpin(b)
	s.blk++
	s.tried++
	w.goTo((*walk).tryBits)
}

// bitSet advances the allocator's hint past the new bit, and zeroes a new
// pointer block.
func (w *walk) bitSet(idx int64) {
	s := &w.bits
	s.idx = idx
	if s.inode {
		w.fs.inodeHint = uint32(idx) + 1
	} else {
		w.fs.blockHint = idx + 1
	}
	if !s.zeroed {
		w.goTo(s.next)
		return
	}
	w.pc = (*walk).zeroLoaded
	w.fs.cache.GetForWrite(idx, true, w.onBlock)
}

func (w *walk) zeroLoaded() {
	b := w.blk
	clear(w.fs.cache.Page(b))
	w.fs.cache.MarkDirty(b)
	w.fs.cache.Unpin(b)
	w.goTo(w.bits.next)
}

// gotBits is the bitmap block callback: a failed bitmap read ends the
// operation, an inode search's with ErrNoInodes whatever the cause.
func (w *walk) gotBits(b *buffercache.Block, err error) {
	if err != nil {
		w.bitsFailed(err)
		return
	}
	w.blk = b
	w.resume()
}

func (w *walk) bitsFailed(err error) {
	if w.bits.inode {
		err = ErrNoInodes
	}
	w.fail(err)
}

// clearBit frees bit idx of the bitmap region at start, then runs next.
func (w *walk) clearBit(start, idx int64, next func(*walk)) {
	w.bits = bitOp{start: start, idx: idx, next: next}
	w.pc = (*walk).bitLoaded
	w.fs.cache.Get(start+idx/(BlockSize*8), true, w.onBits)
}

func (w *walk) bitLoaded() {
	idx := w.bits.idx
	w.blk.Data[(idx/8)%BlockSize] &^= 1 << (idx % 8)
	w.fs.cache.MarkDirty(w.blk)
	w.fs.cache.Unpin(w.blk)
	w.goTo(w.bits.next)
}

// freeBlock releases a data block and invalidates its cache entry, on a
// record of its own: the caller does not wait for it.
func (fs *FS) freeBlock(lbn int64) {
	fs.cache.Drop(lbn)
	w := fs.walk()
	w.doneErr = func(error) {} // nobody waits for a free
	w.clearBit(fs.sb.BlockBitmapStart, lbn, (*walk).ended)
}
