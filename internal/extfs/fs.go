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
	// zeroing). The pass-through assembly installs the NCache-aware
	// implementation; the default zero-fills.
	materializer func(*buffercache.Block)

	// walks is the free list of operation records (see walk).
	walks netbuf.FreeList[walk]
}

// SetMaterializer installs the logical-block materializer.
func (fs *FS) SetMaterializer(fn func(*buffercache.Block)) { fs.materializer = fn }

// materialize turns a logical block into a real one.
func (fs *FS) materialize(b *buffercache.Block) {
	if !b.Logical {
		return
	}
	if fs.materializer != nil {
		fs.materializer(b)
		return
	}
	for i := range b.Data {
		b.Data[i] = 0
	}
	b.Logical = false
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
// locate the destination range in b.Data, srcOff the source range in the
// caller's payload. The filler performs (and its caller charges) the actual
// data movement — physical copy, key stamp, or nothing, depending on the
// server configuration.
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

// GetInode reads an inode.
func (fs *FS) GetInode(ino uint32, done func(Inode, error)) {
	w := fs.walk()
	w.doneInode = done
	w.loadInode(ino, (*walk).ended)
}

// putInode writes an inode back.
func (fs *FS) putInode(ino uint32, in Inode, done func(error)) {
	w := fs.walk()
	w.ino, w.in, w.doneErr = ino, in, done
	w.storeInode()
}

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

// bitSearch scans a bitmap region for a clear bit, sets it, and returns its
// index. hint is the index to start from.
type bitSearch struct {
	fs         *FS
	start, len int64 // bitmap region in blocks
	limit      int64 // number of valid bits
	hint       int64
	done       func(int64, error)
}

func (s *bitSearch) run() {
	startBlk := s.hint / (BlockSize * 8)
	s.tryBlock(startBlk, 0)
}

func (s *bitSearch) tryBlock(blkIdx, scanned int64) {
	if scanned >= s.len {
		s.done(0, ErrNoSpace)
		return
	}
	if blkIdx >= s.len {
		blkIdx = 0
	}
	lbn := s.start + blkIdx
	s.fs.cache.Get(lbn, true, func(b *buffercache.Block, err error) {
		if err != nil {
			s.done(0, err)
			return
		}
		base := blkIdx * BlockSize * 8
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
					s.fs.cache.MarkDirty(b)
					s.fs.cache.Unpin(b)
					s.done(idx, nil)
					return
				}
			}
		}
		s.fs.cache.Unpin(b)
		s.tryBlock(blkIdx+1, scanned+1)
	})
}

// clearBit frees one bitmap bit.
func (fs *FS) clearBit(start, idx int64, done func(error)) {
	lbn := start + idx/(BlockSize*8)
	fs.cache.Get(lbn, true, func(b *buffercache.Block, err error) {
		if err != nil {
			done(err)
			return
		}
		byteIdx := (idx / 8) % BlockSize
		b.Data[byteIdx] &^= 1 << (idx % 8)
		fs.cache.MarkDirty(b)
		fs.cache.Unpin(b)
		done(nil)
	})
}

// allocBlock reserves one data block.
func (fs *FS) allocBlock(done func(int64, error)) {
	s := &bitSearch{
		fs:    fs,
		start: fs.sb.BlockBitmapStart,
		len:   fs.sb.BlockBitmapLen,
		limit: fs.sb.NumBlocks,
		hint:  fs.blockHint,
		done: func(idx int64, err error) {
			if err == nil {
				fs.blockHint = idx + 1
			}
			done(idx, err)
		},
	}
	s.run()
}

// freeBlock releases a data block and invalidates its cache entry.
func (fs *FS) freeBlock(lbn int64, done func(error)) {
	fs.cache.Drop(lbn)
	fs.clearBit(fs.sb.BlockBitmapStart, lbn, done)
}

// allocInode reserves an inode number.
func (fs *FS) allocInode(done func(uint32, error)) {
	s := &bitSearch{
		fs:    fs,
		start: fs.sb.InodeBitmapStart,
		len:   fs.sb.InodeBitmapLen,
		limit: int64(fs.sb.NumInodes),
		hint:  int64(fs.inodeHint),
		done: func(idx int64, err error) {
			if err != nil {
				done(0, ErrNoInodes)
				return
			}
			fs.inodeHint = uint32(idx) + 1
			done(uint32(idx), nil)
		},
	}
	s.run()
}

// freeInode releases an inode number.
func (fs *FS) freeInode(ino uint32, done func(error)) {
	fs.clearBit(fs.sb.InodeBitmapStart, int64(ino), done)
}

// allocZeroedBlock reserves a block and zeroes it in cache (for indirect
// pointer blocks and new directory blocks).
func (fs *FS) allocZeroedBlock(done func(int64, error)) {
	fs.allocBlock(func(lbn int64, err error) {
		if err != nil {
			done(0, err)
			return
		}
		fs.cache.GetForWrite(lbn, true, func(b *buffercache.Block, err error) {
			if err != nil {
				done(0, err)
				return
			}
			for i := range b.Data {
				b.Data[i] = 0
			}
			b.Logical = false
			fs.cache.MarkDirty(b)
			fs.cache.Unpin(b)
			done(lbn, nil)
		})
	})
}
