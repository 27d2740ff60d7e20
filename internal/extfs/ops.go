package extfs

import "fmt"

// span returns the file blocks covering bytes [off, off+n), n > 0.
func span(off uint64, n int) (first int64, count int) {
	first = int64(off / BlockSize)
	return first, int(int64((off+uint64(n)-1)/BlockSize) - first + 1)
}

// ---- read ----

// Read resolves [off, off+n) of a file into pinned cache-block extents,
// reading missing runs through the cache with request-sized read-ahead. The
// caller consumes the extents (copying or key-stamping per its
// configuration) and must call result.Done.
func (fs *FS) Read(ino uint32, off uint64, n int, done func(*ReadResult, error)) {
	w := fs.walk()
	w.off, w.n, w.doneRead = off, n, done
	w.loadInode(ino, (*walk).readInode)
}

func (w *walk) readInode() {
	in := &w.in
	if in.Mode != ModeFile {
		w.finish(ErrIsDir)
		return
	}
	w.res = ReadResult{Extents: w.res.Extents[:0], Attr: in.attr(), w: w}
	if w.off >= in.Size || w.n == 0 {
		w.res.EOF = true
		w.finish(nil)
		return
	}
	if uint64(w.n) > in.Size-w.off {
		w.n = int(in.Size - w.off)
	}
	first, count := span(w.off, w.n)
	w.resolve(first, count, false, (*walk).readMapped)
}

func (w *walk) readMapped() {
	w.pc = (*walk).readFetch
	w.fs.charge(w.count, w.onCharged)
}

// readFetch fetches the resolved blocks into w.blks, one request per
// contiguous device run, all issued at once; readRun counts them in.
func (w *walk) readFetch() {
	lbns := w.lbns
	w.blks = sized(w.blks, len(lbns))
	w.waiting = 1 // guard so inline hits don't complete early
	for i := 0; i < len(lbns); {
		if lbns[i] == 0 {
			i++ // hole: zero bytes, no block
			continue
		}
		start := i
		for i++; i < len(lbns) && lbns[i] == lbns[i-1]+1; i++ {
		}
		w.waiting++
		w.fs.cache.GetRange(lbns[start], w.blks[start:i], false, w.onRun)
	}
	w.readRun(nil)
}

// readRun notes one run's arrival and, after the last, assembles the extent
// list.
func (w *walk) readRun(err error) {
	if err != nil && w.readErr == nil {
		w.readErr = err
	}
	if w.waiting--; w.waiting != 0 {
		return
	}
	if w.readErr != nil {
		for _, b := range w.blks {
			if b != nil {
				w.fs.cache.Unpin(b)
			}
		}
		w.finish(w.readErr)
		return
	}
	res := &w.res
	res.N, res.EOF = w.n, w.off+uint64(w.n) >= res.Attr.Size
	remaining, blockOff := w.n, int(w.off%BlockSize)
	for _, b := range w.blks {
		l := min(BlockSize-blockOff, remaining)
		res.Extents = append(res.Extents, Extent{Block: b, Off: blockOff, Len: l})
		remaining -= l
		blockOff = 0
	}
	w.finish(nil)
}

// ---- write ----

// Write applies a filler to [off, off+n) of a file, allocating blocks and
// growing the file as needed. Whole-block writes skip the read-fill; partial
// blocks are read first (read-modify-write).
func (fs *FS) Write(ino uint32, off uint64, n int, filler Filler, done func(error)) {
	fs.write(ino, off, n, filler, done, false)
}

// WriteStable is Write for a stable WRITE (NFSv3 FILE_SYNC, RFC 1813
// §3.3.7): before done runs, every block the write dirtied — its data
// blocks, the pointer blocks it allocated under and, when it grew the file
// or allocated from the inode, the inode's block — is on storage
// (Cache.SyncBlocks), and no other block is written or waited for.
func (fs *FS) WriteStable(ino uint32, off uint64, n int, filler Filler, done func(error)) {
	fs.write(ino, off, n, filler, done, true)
}

func (fs *FS) write(ino uint32, off uint64, n int, filler Filler, done func(error), stable bool) {
	if n == 0 {
		done(nil)
		return
	}
	w := fs.walk()
	w.off, w.n, w.filler, w.doneErr, w.stable = off, n, filler, done, stable
	w.loadInode(ino, (*walk).writeInode)
}

func (w *walk) writeInode() {
	in := &w.in
	if in.Mode != ModeFile {
		w.finish(ErrIsDir)
		return
	}
	// A write starting beyond a partial EOF block (and not touching it)
	// makes that block's stale tail readable: zero it first.
	if w.off > in.Size && in.Size%BlockSize != 0 && w.off/BlockSize > in.Size/BlockSize {
		w.zeroTail()
		return
	}
	w.writeMap()
}

// zeroTail zeroes what the write exposes of the block holding the current
// EOF — its tail beyond EOF, up to w.off — materializing a logical block
// first, then maps the write.
func (w *walk) zeroTail() {
	w.resolve(int64(w.in.Size/BlockSize), 1, false, (*walk).tailMapped)
}

func (w *walk) tailMapped() {
	if w.lbns[0] == 0 {
		w.goTo((*walk).writeMap)
		return
	}
	w.pc = (*walk).tailLoaded
	w.fs.cache.Get(w.lbns[0], false, w.onBlock)
}

func (w *walk) tailLoaded() {
	b, size := w.blk, w.in.Size
	w.fs.materialize(b)
	blockStart := size / BlockSize * BlockSize
	clear(w.fs.cache.Page(b)[size-blockStart : min(w.off-blockStart, BlockSize)])
	w.markDirty(b)
	w.fs.cache.Unpin(b)
	w.goTo((*walk).writeMap)
}

func (w *walk) writeMap() {
	first, count := span(w.off, w.n)
	w.resolve(first, count, true, (*walk).writeMapped)
}

func (w *walk) writeMapped() {
	w.i, w.pos, w.srcOff = 0, w.off, 0
	w.pc = (*walk).writeBlock
	w.fs.charge(w.count, w.onCharged)
}

// writeGeom describes block i of the write: the byte range within it, and
// whether it needs no read-fill — a whole-block overwrite, a block lying
// entirely beyond the current end of file, or a freshly allocated block
// (whose on-disk content is stale: a reused freed block must read back as
// zeros outside the written range).
func (w *walk) writeGeom() (blockOff, l int, whole, stale bool) {
	blockOff = int(w.pos % BlockSize)
	l = min(BlockSize-blockOff, w.n-w.srcOff)
	whole = blockOff == 0 && l == BlockSize
	stale = w.freshs[w.i] || w.pos-uint64(blockOff) >= w.in.Size
	return
}

// writeBlock fetches block i of the write, or finishes after the last.
func (w *walk) writeBlock() {
	if w.i == w.count {
		if end := w.off + uint64(w.n); end > w.in.Size {
			w.in.Size, w.changed = end, true
		}
		if w.changed {
			w.storeInode((*walk).ended)
			return
		}
		w.finish(nil)
		return
	}
	_, _, whole, stale := w.writeGeom()
	w.pc = (*walk).writeApply
	if whole || stale {
		w.fs.cache.GetForWrite(w.lbns[w.i], false, w.onBlock)
	} else {
		w.fs.cache.Get(w.lbns[w.i], false, w.onBlock)
	}
}

// writeApply runs the filler over block i.
func (w *walk) writeApply() {
	b, size := w.blk, w.in.Size
	blockOff, l, whole, stale := w.writeGeom()
	if stale && !whole {
		// Anything the filler doesn't cover must read back as zeros.
		clear(w.fs.cache.Page(b))
	}
	w.filler(b, blockOff, l, w.srcOff)
	if blockStart := w.pos - uint64(blockOff); !whole && !stale && size < w.pos && !b.Logical {
		// The write starts past the old EOF within this block: the gap
		// [oldEOF, writeStart) becomes file content and must read as
		// zeros. This runs after the filler, which may have materialized
		// a logical block's stale bytes; a block the filler left logical
		// holds its key's bytes.
		clear(w.fs.cache.Page(b)[size-blockStart : blockOff])
	}
	w.markDirty(b)
	w.fs.cache.Unpin(b)
	w.srcOff += l
	w.pos += uint64(l)
	w.i++
	w.goTo((*walk).writeBlock)
}

// ---- truncation (REMOVE's reap) ----

// truncAll frees every block of inode w.in (see truncBlock).
func (w *walk) truncAll() {
	w.cur, w.end = 0, int64((w.in.Size+BlockSize-1)/BlockSize)
	w.truncBlock()
}

// truncBlock frees file blocks [cur, end) one at a time (map, then free, so
// the pointer blocks and the bitmap are touched in turn), then reaps the
// inode — a file's once its emptied inode, pointer blocks dropped, is stored.
func (w *walk) truncBlock() {
	if w.cur < w.end {
		w.resolve(w.cur, 1, false, (*walk).truncMapped)
		return
	}
	if w.reap {
		w.reapInode()
		return
	}
	in := &w.in
	in.Size = 0
	for _, p := range []*uint32{&in.Indirect, &in.DIndirect} {
		if *p != 0 {
			w.fs.freeBlock(int64(*p))
			*p = 0
		}
	}
	w.storeInode((*walk).reapInode)
}

func (w *walk) truncMapped() {
	if w.lbns[0] == 0 {
		w.cur++
		w.goTo((*walk).truncBlock)
		return
	}
	if w.cur < NDirect {
		w.in.Direct[w.cur] = 0
	}
	w.fs.cache.Drop(w.lbns[0])
	w.clearBit(w.fs.sb.BlockBitmapStart, w.lbns[0], (*walk).truncFreed)
}

func (w *walk) truncFreed() {
	w.cur++
	w.truncBlock()
}

// ---- directories ----

// scan walks the directory w.in's slots in order. visit returns stop to end
// the scan (w.stopped reports it to scanned) and mutate when it changed the
// slot, which marks the block dirty. It sees the slot in place, in the pinned
// block: nothing is decoded, so a scan allocates nothing.
func (w *walk) scan(visit func(w *walk, slot []byte) (stop, mutate bool), scanned func(*walk)) {
	w.visit, w.scanned, w.stopped = visit, scanned, false
	w.cur, w.end = 0, int64((w.in.Size+BlockSize-1)/BlockSize)
	w.scanBlock()
}

func (w *walk) scanBlock() {
	if w.cur == w.end {
		w.goTo(w.scanned)
		return
	}
	w.resolve(w.cur, 1, false, (*walk).scanMapped)
}

func (w *walk) scanMapped() {
	if w.lbns[0] == 0 {
		w.cur++
		w.goTo((*walk).scanBlock)
		return
	}
	w.pc = (*walk).scanLoaded
	w.fs.cache.Get(w.lbns[0], true, w.onBlock)
}

func (w *walk) scanLoaded() {
	b, cache := w.blk, w.fs.cache
	limit := min(int(w.in.Size-uint64(w.cur)*BlockSize), BlockSize)
	for so := 0; so+DirentSize <= limit && !w.stopped; so += DirentSize {
		stop, mutate := w.visit(w, b.Data[so:so+DirentSize])
		if mutate {
			cache.MarkDirty(b)
		}
		w.stopped = stop
	}
	cache.Unpin(b)
	if w.stopped {
		w.goTo(w.scanned)
		return
	}
	w.cur++
	w.goTo((*walk).scanBlock)
}

// scanDir loads directory dirIno and scans it.
func (w *walk) scanDir(dirIno uint32, visit func(w *walk, slot []byte) (stop, mutate bool), scanned func(*walk)) {
	w.visit, w.scanned = visit, scanned
	w.loadInode(dirIno, (*walk).scanInode)
}

func (w *walk) scanInode() {
	if w.in.Mode != ModeDir {
		w.finish(ErrNotDir)
		return
	}
	w.scan(w.visit, w.scanned)
}

// setName copies an operation's name into the record.
func (w *walk) setName(name []byte) {
	w.nameLen = len(name)
	copy(w.nameBuf[:], name)
}

// named reports whether a slot holds w's name (in place, without a copy).
func (w *walk) named(slot []byte) bool {
	n, ok := slotName(slot)
	return ok && len(n) == w.nameLen && string(n) == string(w.nameBuf[:len(n)])
}

// Lookup resolves name within a directory. The name is copied: it need not
// outlive the call.
func (fs *FS) Lookup(dirIno uint32, name []byte, done func(uint32, error)) {
	w := fs.walk()
	w.setName(name)
	w.doneIno = done
	w.scanDir(dirIno, visitMatch, (*walk).matchScanned)
}

// visitMatch stops at the live slot holding w's name (and, when w.found is
// preset, holding that inode), leaving its inode in w.found.
func visitMatch(w *walk, slot []byte) (stop, mutate bool) {
	ino := slotIno(slot)
	if ino == 0 || (w.found != 0 && ino != w.found) || !w.named(slot) {
		return false, false
	}
	w.found = ino
	return true, false
}

func (w *walk) matchScanned() {
	if !w.stopped {
		w.finish(ErrNotFound)
		return
	}
	w.finish(nil)
}

// Listing is a directory's live entries in slot order: the names back to
// back, name i ending at ends[i]. It is the walk's own, valid only during
// Readdir's callback.
type Listing struct {
	names []byte
	ends  []int
}

// Len returns the number of entries.
func (l *Listing) Len() int { return len(l.ends) }

// Name returns entry i's name, a view into the listing.
func (l *Listing) Name(i int) []byte {
	start := 0
	if i > 0 {
		start = l.ends[i-1]
	}
	return l.names[start:l.ends[i]]
}

// Readdir lists a directory. The listing is valid only during done.
func (fs *FS) Readdir(dirIno uint32, done func(*Listing, error)) {
	w := fs.walk()
	w.doneList = done
	w.scanDir(dirIno, visitList, (*walk).ended)
}

// visitList gathers the live entries' names into the record's listing.
func visitList(w *walk, slot []byte) (stop, mutate bool) {
	if name, ok := slotName(slot); ok && slotIno(slot) != 0 {
		w.list.names = append(w.list.names, name...)
		w.list.ends = append(w.list.ends, len(w.list.names))
	}
	return false, false
}

// Create makes a new file or directory entry in dirIno. Its phases are a
// lookup that must miss, the directory's inode, the new inode allocated and
// written, and the dirent added; a failure after the allocation frees the
// inode again.
func (fs *FS) Create(dirIno uint32, name []byte, mode uint16, done func(uint32, error)) {
	if len(name) > MaxNameLen {
		done(0, ErrNameTooLong)
		return
	}
	w := fs.walk()
	w.setName(name)
	w.dir, w.mode, w.doneIno = dirIno, mode, done
	w.scanDir(dirIno, visitMatch, (*walk).createLooked)
}

func (w *walk) createLooked() {
	if w.stopped {
		w.finish(ErrExists)
		return
	}
	w.loadInode(w.dir, (*walk).createDirLoaded)
}

func (w *walk) createDirLoaded() {
	if w.in.Mode != ModeDir {
		w.finish(ErrNotDir)
		return
	}
	w.saved = w.in
	w.allocInode((*walk).createAllocated)
}

func (w *walk) createAllocated() {
	w.child, w.orphan = uint32(w.bits.idx), true
	w.ino, w.in = w.child, Inode{Mode: w.mode, Links: 1}
	w.storeInode((*walk).createStored)
}

func (w *walk) createStored() {
	w.ino, w.in = w.dir, w.saved
	w.addDirent()
}

// addDirent names w.child in directory w.ino (its inode in w.in), reusing a
// free slot or extending the directory by a block.
func (w *walk) addDirent() { w.scan(visitInsert, (*walk).insertScanned) }

// visitInsert fills the first free slot.
func visitInsert(w *walk, slot []byte) (stop, mutate bool) {
	if slotIno(slot) != 0 {
		return false, false
	}
	putSlot(slot, w.child, w.nameBuf[:w.nameLen])
	return true, true
}

func (w *walk) insertScanned() {
	if w.stopped {
		w.created()
		return
	}
	// Extend the directory by one block.
	w.resolve(int64(w.in.Size/BlockSize), 1, true, (*walk).insertMapped)
}

func (w *walk) insertMapped() {
	w.pc = (*walk).insertLoaded
	w.fs.cache.GetForWrite(w.lbns[0], true, w.onBlock)
}

func (w *walk) insertLoaded() {
	b := w.blk
	page := w.fs.cache.Page(b)
	clear(page)
	putSlot(page, w.child, w.nameBuf[:w.nameLen])
	w.fs.cache.MarkDirty(b)
	w.fs.cache.Unpin(b)
	w.in.Size += BlockSize
	w.storeInode((*walk).created)
}

func (w *walk) created() {
	w.orphan, w.found = false, w.child
	w.finish(nil)
}

// Remove unlinks a name and frees its inode and blocks. Directories must be
// empty. Its phases are the lookup, the entry's inode, for a directory the
// check that it is empty, the unlink, then the truncation (a file's inode is
// reloaded, emptied and stored) and the inode reaped. Validation
// happens before the directory entry is cleared, so a failed removal leaves
// the tree intact.
func (fs *FS) Remove(dirIno uint32, name []byte, done func(error)) {
	w := fs.walk()
	w.setName(name)
	w.dir, w.doneErr = dirIno, done
	w.scanDir(dirIno, visitMatch, (*walk).removeLooked)
}

func (w *walk) removeLooked() {
	if !w.stopped {
		w.finish(ErrNotFound)
		return
	}
	w.child = w.found
	w.loadInode(w.child, (*walk).removeLoaded)
}

func (w *walk) removeLoaded() {
	w.saved = w.in
	if w.in.Mode != ModeDir {
		w.removeUnlink()
		return
	}
	w.found = 0
	w.scanDir(w.child, visitLive, (*walk).removeChecked)
}

// visitLive counts live slots (the whole directory is walked either way).
func visitLive(w *walk, slot []byte) (stop, mutate bool) {
	if slotIno(slot) != 0 {
		w.found++
	}
	return false, false
}

func (w *walk) removeChecked() {
	if w.found != 0 {
		w.finish(ErrNotEmpty)
		return
	}
	w.removeUnlink()
}

func (w *walk) removeUnlink() {
	w.found = w.child
	w.scanDir(w.dir, visitUnlink, (*walk).removeUnlinked)
}

// visitUnlink clears the slot binding w's name to inode w.found.
func visitUnlink(w *walk, slot []byte) (stop, mutate bool) {
	if stop, _ = visitMatch(w, slot); stop {
		clear(slot)
	}
	return stop, stop
}

// removeUnlinked frees the unlinked inode's blocks: a file's by truncating it
// to nothing, a directory's straight from the copy of its inode.
func (w *walk) removeUnlinked() {
	if !w.stopped {
		w.finish(ErrNotFound)
		return
	}
	if w.saved.Mode == ModeFile {
		w.loadInode(w.child, (*walk).truncAll)
		return
	}
	w.ino, w.in, w.reap = w.child, w.saved, true
	w.truncAll()
}

// reapInode marks inode w.child free on disk and in the bitmap, then ends
// the operation with w.err.
func (w *walk) reapInode() {
	w.ino, w.in = w.child, Inode{}
	w.storeInode((*walk).reapStored)
}

func (w *walk) reapStored() {
	w.clearBit(w.fs.sb.InodeBitmapStart, int64(w.child), (*walk).reaped)
}

func (w *walk) reaped() { w.finish(w.err) }

// Sync flushes all dirty cache state.
func (fs *FS) Sync(done func(error)) { fs.cache.Sync(done) }

// Map resolves the device blocks backing [off, off+n) of a file without
// allocating (holes come back as 0). The write-ahead log journals a write's
// resolved LBN list alongside its payload, so replay and truncation can
// speak the block layer's language. The list is valid only during done.
func (fs *FS) Map(ino uint32, off uint64, n int, done func([]int64, error)) {
	if n <= 0 {
		done(nil, nil)
		return
	}
	w := fs.walk()
	w.off, w.n, w.doneLBNs = off, n, done
	w.loadInode(ino, (*walk).mapInode)
}

func (w *walk) mapInode() {
	first, count := span(w.off, w.n)
	w.resolve(first, count, false, (*walk).ended)
}

// Fsck sanity-checks reachable metadata (superblock bounds, the root inode's
// mode, the root directory's slots). It is a testing aid, not a repair tool.
func (fs *FS) Fsck(done func(error)) {
	if fs.sb.DataStart <= 0 || fs.sb.DataStart >= fs.sb.NumBlocks {
		done(fmt.Errorf("extfs: corrupt layout: data start %d of %d", fs.sb.DataStart, fs.sb.NumBlocks))
		return
	}
	w := fs.walk()
	w.doneErr = done
	w.loadInode(RootIno, (*walk).checkInode)
}

func (w *walk) checkInode() {
	if w.in.Mode != ModeDir {
		w.finish(fmt.Errorf("extfs: root inode is not a directory"))
		return
	}
	w.scan(visitCheck, (*walk).checkScanned)
}

// visitCheck stops at a live slot with a corrupt name length.
func visitCheck(_ *walk, slot []byte) (stop, mutate bool) {
	_, ok := slotName(slot)
	return slotIno(slot) != 0 && !ok, false
}

func (w *walk) checkScanned() {
	if w.stopped {
		w.finish(fmt.Errorf("%w: root directory block %d", ErrBadDirent, w.cur))
		return
	}
	w.finish(nil)
}
