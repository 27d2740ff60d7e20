package extfs

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ncache/internal/buffercache"
	"ncache/internal/netbuf"
)

// walk is the recycled record of one file-system operation. The operations
// are written in continuation-passing style because any cache access may
// miss and complete in a later event — but on a resident cache every access
// completes inline, and a closure per continuation was the file system's
// whole allocation cost. The record carries what those closures captured
// (the inode copy, the block-map cursor, the resolved run, a bitmap search)
// and its continuation is a plain function pointer, pc: the five callbacks
// the cache and the CPU charge need are bound once, when the record is first
// allocated, and all they do is store their result and resume at pc. An
// operation of several steps, like CREATE or REMOVE, is a chain of phases on
// one record.
//
// resume is a trampoline: a callback that fires inline (a hit) only flags the
// loop to go round again, so a run of hits neither recurses nor allocates,
// and a miss falls back to the very same callback firing from a later event.
// Every step issues at most one asynchronous call, as its last action.
//
// A record is owned by the operation that took it and retires when that
// operation completes (for a read: at ReadResult.Done, which releases the
// pins it holds). Records never leave their FS, so the free list needs no
// lock. A retired record keeps itself as its ReadResult's, so a second Done
// retires it twice, and a callback that resumes it panics.
type walk struct {
	netbuf.Recycled
	fs *FS
	pc func(*walk)
	// gen fences resume loops still on the stack when the record retires
	// (and is perhaps already serving the next operation).
	gen            uint32
	running, again bool

	// The result of the last cache call (a failed one ends the operation
	// there and then: continuations only ever see success).
	blk *buffercache.Block

	// The operation: its inode (a private copy, persisted by storeInode),
	// byte range, name and completion. A name is kept as bytes in the
	// record, so a named operation holds no string.
	ino      uint32
	in       Inode
	off      uint64
	n        int
	nameBuf  [MaxNameLen]byte
	nameLen  int // may exceed MaxNameLen: such a name matches no slot
	filler   Filler
	next     func(*walk) // after loadInode or storeInode
	doneErr  func(error)
	doneIno  func(uint32, error)
	doneAttr func(Attr, error)
	doneLBNs func([]int64, error)
	doneList func(*Listing, error)
	doneRead func(*ReadResult, error)

	// stable marks a WriteStable, which syncs the blocks it dirtied
	// before it completes.
	stable  bool
	dirtied []int64

	// CREATE and REMOVE: the directory and the entry's inode, the inode a
	// later phase needs back (the directory's, or the removed file's), and
	// whether an allocated inode is not yet named by a dirent (a failure
	// then frees it, and err is what the operation reports after that).
	dir, child uint32
	mode       uint16
	saved      Inode
	orphan     bool
	err        error
	bits       bitOp

	// The run of file blocks [fbn, fbn+count) being resolved, block i next.
	fbn     int64
	count   int
	i       int
	alloc   bool
	changed bool // the inode's own pointers changed
	lbns    []int64
	freshs  []bool
	mapped  func(*walk) // after resolve
	// The block-map cursor: a pointer slot in the inode (root) or in the
	// pinned pointer block pb, with hops more pointer blocks below it.
	root *uint32
	pb   *buffercache.Block
	hops int
	idx  [2]int64 // entry index in the pointer block at each remaining depth

	// Per-operation loop state: file blocks [cur, end) for scans and
	// truncation; the byte cursor of a write; a read's outstanding runs.
	cur, end  int64
	pos       uint64
	srcOff    int
	waiting   int
	readErr   error // the first failed run of a read
	reap      bool  // truncation of a removed directory: reap the inode after
	visit     func(w *walk, slot []byte) (stop, mutate bool)
	scanned   func(*walk)
	stopped   bool
	found     uint32
	list      Listing
	blks      []*buffercache.Block
	res       ReadResult
	onBlock   func(*buffercache.Block, error)
	onBits    func(*buffercache.Block, error)
	onRun     func(error)
	onErr     func(error)
	onCharged func()
}

// walk takes a blank record off the free list.
func (fs *FS) walk() *walk {
	if w := fs.walks.Take(); w != nil {
		w.res.w = nil
		return w
	}
	w := &walk{fs: fs}
	w.onBlock, w.onBits, w.onRun, w.onErr, w.onCharged = w.gotBlock, w.gotBits, w.readRun, w.got, w.resume
	return w
}

// retire blanks the record — keeping its arrays' capacity and its bound
// callbacks — and returns it to the free list.
func (w *walk) retire() {
	clear(w.blks)
	clear(w.res.Extents)
	*w = walk{
		Recycled: w.Recycled, fs: w.fs, gen: w.gen + 1,
		lbns: w.lbns[:0], freshs: w.freshs[:0], blks: w.blks[:0], dirtied: w.dirtied[:0],
		list:    Listing{names: w.list.names[:0], ends: w.list.ends[:0]},
		res:     ReadResult{Extents: w.res.Extents[:0], w: w},
		onBlock: w.onBlock, onBits: w.onBits, onRun: w.onRun, onErr: w.onErr, onCharged: w.onCharged,
	}
	w.fs.walks.Put(w)
}

// resume runs the record's continuation, and keeps running continuations
// for as long as each one's call completes inline.
func (w *walk) resume() {
	if w.Retired() {
		panic("extfs: walk record used after retire")
	}
	if w.running {
		w.again = true
		return
	}
	w.running = true
	for gen := w.gen; ; {
		w.again = false
		w.pc(w)
		if w.gen != gen {
			return // retired inside pc; the record is no longer ours
		}
		if !w.again {
			break
		}
	}
	w.running = false
}

// goTo continues at pc without growing the stack.
func (w *walk) goTo(pc func(*walk)) {
	w.pc = pc
	w.resume()
}

// The bound callbacks: note the result and carry on, or end the operation.
func (w *walk) gotBlock(b *buffercache.Block, err error) { w.blk = b; w.got(err) }
func (w *walk) got(err error) {
	if err != nil {
		w.fail(err)
		return
	}
	w.resume()
}

// fail ends the operation with err, letting go of the pointer block the
// cursor may hold pinned — after freeing the inode a CREATE allocated, if
// no dirent names it yet.
func (w *walk) fail(err error) {
	w.unpinSlot()
	if w.orphan {
		w.orphan, w.err = false, err
		w.reapInode()
		return
	}
	w.finish(err)
}

// ended is the continuation of an operation's last call.
func (w *walk) ended() { w.finish(nil) }

// finish completes the operation. The record retires first — a completion
// that starts the next operation then reuses it — except where the result
// is a view into it: the lists of Map and Readdir are valid only during their
// callbacks, and a successful read keeps the record until ReadResult.Done.
func (w *walk) finish(err error) {
	switch {
	case w.doneRead != nil:
		if err == nil {
			w.doneRead(&w.res, nil)
			return
		}
		d := w.doneRead
		w.retire()
		d(nil, err)
	case w.doneLBNs != nil:
		if err != nil {
			w.lbns = nil
		}
		w.doneLBNs(w.lbns, err)
		w.retire()
	case w.doneIno != nil:
		d, ino := w.doneIno, w.found
		if err != nil {
			ino = 0
		}
		w.retire()
		d(ino, err)
	case w.doneAttr != nil:
		d, a := w.doneAttr, w.in.attr()
		if err != nil {
			a = Attr{}
		}
		w.retire()
		d(a, err)
	case w.doneList != nil:
		if err != nil {
			w.doneList(nil, err)
		} else {
			w.doneList(&w.list, nil)
		}
		w.retire()
	case w.stable && err == nil:
		// The list is sorted once and only read during the call, so the
		// record retires after it.
		slices.Sort(w.dirtied)
		w.fs.cache.SyncBlocks(slices.Compact(w.dirtied), w.doneErr)
		w.retire()
	default:
		d := w.doneErr
		w.retire()
		d(err)
	}
}

// markDirty marks b dirty and, on a stable write, notes it for the sync.
func (w *walk) markDirty(b *buffercache.Block) {
	w.fs.cache.MarkDirty(b)
	if w.stable {
		w.dirtied = append(w.dirtied, b.LBN)
	}
}

// ---- inode table access ----

// inodeLoc locates an inode's slot in the inode table.
func (fs *FS) inodeLoc(ino uint32) (blk int64, off int) {
	return fs.sb.InodeTableStart + int64(ino)/InodesPerBlock, int(ino%InodesPerBlock) * InodeSize
}

// loadInode reads inode ino into w.in, then runs next.
func (w *walk) loadInode(ino uint32, next func(*walk)) {
	w.ino, w.next = ino, next
	if ino == 0 || ino >= w.fs.sb.NumInodes {
		w.fail(fmt.Errorf("%w: %d", ErrBadIno, ino))
		return
	}
	blk, _ := w.fs.inodeLoc(ino)
	w.pc = (*walk).inodeLoaded
	w.fs.cache.Get(blk, true, w.onBlock)
}

func (w *walk) inodeLoaded() {
	_, off := w.fs.inodeLoc(w.ino)
	w.in = DecodeInode(w.blk.Data[off : off+InodeSize])
	w.fs.cache.Unpin(w.blk)
	w.goTo(w.next)
}

// storeInode writes w.in back as inode w.ino, then runs next.
func (w *walk) storeInode(next func(*walk)) {
	w.next = next
	blk, _ := w.fs.inodeLoc(w.ino)
	w.pc = (*walk).inodeStored
	w.fs.cache.Get(blk, true, w.onBlock)
}

func (w *walk) inodeStored() {
	_, off := w.fs.inodeLoc(w.ino)
	EncodeInode(w.in, w.blk.Data[off:off+InodeSize])
	w.markDirty(w.blk)
	w.fs.cache.Unpin(w.blk)
	w.goTo(w.next)
}

// ---- block mapping ----

// resolve maps file blocks [fbn, fbn+count) of w.in to device blocks, then
// runs next. w.lbns[i] is 0 for a hole when alloc is false; with alloc,
// missing blocks (and the pointer blocks leading to them) are allocated,
// w.in is updated in place — changed reports that, and the caller persists
// it — and w.freshs[i] marks a data block this call allocated: its on-disk
// content is stale (possibly a freed block's old bytes) and the caller must
// not read-fill it.
//
// Every pointer-block entry is one cache.Get, pinned only while it is read
// or written, exactly as when each block's walk was a closure chain of its
// own: the cache books the same hits and LRU touches in the same order.
func (w *walk) resolve(fbn int64, count int, alloc bool, next func(*walk)) {
	w.fbn, w.count, w.alloc, w.mapped = fbn, count, alloc, next
	w.i, w.changed = 0, false
	w.lbns, w.freshs = sized(w.lbns, count), sized(w.freshs, count)
	w.mapBlock()
}

// sized returns s with n zero elements, in its old storage when that is big
// enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// mapBlock puts the cursor on the inode slot block i hangs off.
func (w *walk) mapBlock() {
	if w.i == w.count {
		w.goTo(w.mapped)
		return
	}
	fbn, in := w.fbn+int64(w.i), &w.in
	switch {
	case fbn < 0 || fbn >= MaxFileBlocks:
		w.fail(fmt.Errorf("%w: block %d", ErrFileTooBig, fbn))
		return
	case fbn < NDirect:
		w.root, w.hops = &in.Direct[fbn], 0
	case fbn < NDirect+PtrsPerBlock:
		w.root, w.hops = &in.Indirect, 1
		w.idx[0] = fbn - NDirect
	default:
		w.root, w.hops = &in.DIndirect, 2
		k := fbn - NDirect - PtrsPerBlock
		w.idx[1], w.idx[0] = k/PtrsPerBlock, k%PtrsPerBlock
	}
	w.hop()
}

// hop follows the slot the cursor is on: down a level, out through a hole,
// or — allocating — through a new block (zeroed if it is a pointer block).
func (w *walk) hop() {
	var cur uint32
	if w.pb != nil {
		cur = binary.BigEndian.Uint32(w.pb.Data[w.idx[w.hops]*4:])
	} else {
		cur = *w.root
	}
	switch {
	case cur != 0 || !w.alloc:
		w.unpinSlot()
		w.descend(int64(cur), false)
	default:
		w.allocBlock(w.hops > 0, (*walk).hopAllocated)
	}
}

// hopAllocated records the new block in the slot (held pinned meanwhile).
func (w *walk) hopAllocated() {
	lbn := w.bits.idx
	if w.pb != nil {
		binary.BigEndian.PutUint32(w.pb.Data[w.idx[w.hops]*4:], uint32(lbn))
		w.markDirty(w.pb)
		w.unpinSlot()
	} else {
		*w.root, w.changed = uint32(lbn), true
	}
	w.descend(lbn, true)
}

func (w *walk) unpinSlot() {
	if w.pb != nil {
		w.fs.cache.Unpin(w.pb)
		w.pb = nil
	}
}

// descend moves the cursor into pointer block lbn, or — at the bottom, or
// at a hole — records block i's answer and moves to the next block.
func (w *walk) descend(lbn int64, fresh bool) {
	if w.hops == 0 || lbn == 0 {
		w.lbns[w.i], w.freshs[w.i] = lbn, fresh
		w.i++
		w.goTo((*walk).mapBlock)
		return
	}
	w.hops--
	w.pc = (*walk).ptrLoaded
	w.fs.cache.Get(lbn, true, w.onBlock)
}

func (w *walk) ptrLoaded() {
	w.pb = w.blk
	w.hop()
}
