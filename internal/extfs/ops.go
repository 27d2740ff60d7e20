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
	if n == 0 {
		done(nil)
		return
	}
	w := fs.walk()
	w.off, w.n, w.filler, w.doneErr = off, n, filler, done
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
		w.zeroTail((*walk).writeMap)
		return
	}
	w.writeMap()
}

// zeroTail zeroes what an extension to w.off exposes of the block holding
// the current EOF — its tail beyond EOF, up to w.off — then runs next. A
// write materializes a logical (key-carrying) block first; a truncate leaves
// those to the data path: the NFS backend grows them with a zero-write
// through the mode's filler.
func (w *walk) zeroTail(next func(*walk)) {
	w.next = next
	w.resolve(int64(w.in.Size/BlockSize), 1, false, (*walk).tailMapped)
}

func (w *walk) tailMapped() {
	if w.lbns[0] == 0 {
		w.goTo(w.next)
		return
	}
	w.pc = (*walk).tailLoaded
	w.fs.cache.Get(w.lbns[0], false, w.onBlock)
}

func (w *walk) tailLoaded() {
	b, size := w.blk, w.in.Size
	if w.filler != nil { // a write
		w.fs.materialize(b)
	}
	if blockStart := size / BlockSize * BlockSize; !b.Logical {
		clear(b.Data[size-blockStart : min(w.off-blockStart, BlockSize)])
		w.fs.cache.MarkDirty(b)
	}
	w.fs.cache.Unpin(b)
	w.goTo(w.next)
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
			w.storeInode()
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
		clear(b.Data)
		b.Logical = false
	}
	w.filler(b, blockOff, l, w.srcOff)
	if blockStart := w.pos - uint64(blockOff); !whole && !stale && size < w.pos {
		// The write starts past the old EOF within this block: the gap
		// [oldEOF, writeStart) becomes file content and must read as
		// zeros. This runs after the filler, which may have materialized
		// a logical block's stale bytes.
		clear(b.Data[size-blockStart : blockOff])
	}
	w.fs.cache.MarkDirty(b)
	w.fs.cache.Unpin(b)
	w.srcOff += l
	w.pos += uint64(l)
	w.i++
	w.goTo((*walk).writeBlock)
}

// ---- truncate ----

// Truncate frees a file's blocks beyond newSize and updates its size.
func (fs *FS) Truncate(ino uint32, newSize uint64, done func(error)) {
	w := fs.walk()
	w.off, w.doneErr = newSize, done
	w.loadInode(ino, (*walk).truncInode)
}

func (w *walk) truncInode() {
	in, newSize := &w.in, w.off
	if in.Mode != ModeFile {
		w.finish(ErrIsDir)
		return
	}
	w.cur = int64((newSize + BlockSize - 1) / BlockSize)
	w.end = int64((in.Size + BlockSize - 1) / BlockSize)
	// Growing across a partial last block exposes its tail.
	if newSize > in.Size && in.Size%BlockSize != 0 {
		w.zeroTail((*walk).truncBlock)
		return
	}
	w.truncBlock()
}

// truncBlock frees file blocks [cur, end) one at a time (map, then free, so
// the pointer blocks and the bitmap are touched in turn), then persists the
// new size — or, for a removed directory, reaps the inode.
func (w *walk) truncBlock() {
	if w.cur < w.end {
		w.resolve(w.cur, 1, false, (*walk).truncMapped)
		return
	}
	fs, in := w.fs, &w.in
	if w.reap {
		ino, done := w.ino, w.doneErr
		w.retire()
		fs.reapInode(ino, done)
		return
	}
	in.Size = w.off
	// Drop pointer blocks that are now entirely unused.
	if in.Size <= NDirect*BlockSize {
		for _, p := range []*uint32{&in.Indirect, &in.DIndirect} {
			if *p != 0 {
				fs.freeBlock(int64(*p), func(error) {})
				*p = 0
			}
		}
	}
	w.storeInode()
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
	w.pc = (*walk).truncFreed
	w.fs.freeBlock(w.lbns[0], w.onErr)
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

// Lookup resolves name within a directory.
func (fs *FS) Lookup(dirIno uint32, name string, done func(uint32, error)) {
	w := fs.walk()
	w.name, w.doneIno = name, done
	w.scanDir(dirIno, visitMatch, (*walk).matchScanned)
}

// visitMatch stops at the live slot named w.name (and, when w.found is
// preset, holding that inode), leaving its inode in w.found.
func visitMatch(w *walk, slot []byte) (stop, mutate bool) {
	ino := slotIno(slot)
	if ino == 0 || (w.found != 0 && ino != w.found) || !slotNamed(slot, w.name) {
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

// Readdir lists a directory.
func (fs *FS) Readdir(dirIno uint32, done func([]Dirent, error)) {
	w := fs.walk()
	w.doneEnts = done
	w.scanDir(dirIno, visitList, (*walk).listScanned)
}

// visitList collects live entries — the one scan that materializes names,
// and it gathers them in w.names to materialize them all at once.
func visitList(w *walk, slot []byte) (stop, mutate bool) {
	if name, ok := slotName(slot); ok && slotIno(slot) != 0 {
		if w.ents == nil {
			w.ents = make([]Dirent, 0, w.in.Size/DirentSize)
		}
		w.ents = append(w.ents, Dirent{Ino: slotIno(slot)})
		w.names = append(w.names, name...)
		w.ends = append(w.ends, len(w.names))
	}
	return false, false
}

// listScanned cuts the entries' names out of one string: a listing costs two
// objects, not one per name.
func (w *walk) listScanned() {
	all, start := string(w.names), 0
	for i, end := range w.ends {
		w.ents[i].Name, start = all[start:end], end
	}
	w.finish(nil)
}

// addDirent inserts an entry, reusing a free slot or extending the
// directory.
func (fs *FS) addDirent(dirIno uint32, in Inode, ent Dirent, done func(error)) {
	if len(ent.Name) > MaxNameLen {
		done(fmt.Errorf("%w: %q", ErrNameTooLong, ent.Name))
		return
	}
	w := fs.walk()
	w.ino, w.in, w.ent, w.doneErr = dirIno, in, ent, done
	w.scan(visitInsert, (*walk).insertScanned)
}

// visitInsert fills the first free slot with w.ent.
func visitInsert(w *walk, slot []byte) (stop, mutate bool) {
	if slotIno(slot) != 0 {
		return false, false
	}
	_ = EncodeDirent(w.ent, slot) // the name was checked on entry
	return true, true
}

func (w *walk) insertScanned() {
	if w.stopped {
		w.finish(nil)
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
	clear(b.Data)
	_ = EncodeDirent(w.ent, b.Data[:DirentSize])
	w.fs.cache.MarkDirty(b)
	w.fs.cache.Unpin(b)
	w.in.Size += BlockSize
	w.storeInode()
}

// Create makes a new file or directory entry in dirIno.
func (fs *FS) Create(dirIno uint32, name string, mode uint16, done func(uint32, error)) {
	if len(name) > MaxNameLen {
		done(0, ErrNameTooLong)
		return
	}
	fs.Lookup(dirIno, name, func(_ uint32, err error) {
		if err == nil {
			done(0, ErrExists)
			return
		}
		if err != ErrNotFound {
			done(0, err)
			return
		}
		fs.GetInode(dirIno, func(dir Inode, err error) {
			if err != nil {
				done(0, err)
				return
			}
			if dir.Mode != ModeDir {
				done(0, ErrNotDir)
				return
			}
			fs.allocInode(func(ino uint32, err error) {
				if err != nil {
					done(0, err)
					return
				}
				fs.putInode(ino, Inode{Mode: mode, Links: 1}, func(err error) {
					if err != nil {
						done(0, err)
						return
					}
					fs.addDirent(dirIno, dir, Dirent{Ino: ino, Name: name}, func(err error) {
						if err != nil {
							done(0, err)
							return
						}
						done(ino, nil)
					})
				})
			})
		})
	})
}

// Remove unlinks a name and frees its inode and blocks. Directories must be
// empty. Validation happens before the directory entry is cleared, so a
// failed removal leaves the tree intact.
func (fs *FS) Remove(dirIno uint32, name string, done func(error)) {
	fs.Lookup(dirIno, name, func(target uint32, err error) {
		if err != nil {
			done(err)
			return
		}
		fs.GetInode(target, func(in Inode, err error) {
			if err != nil {
				done(err)
				return
			}
			unlink := func() {
				w := fs.walk()
				w.name, w.found = name, target
				w.doneIno = func(_ uint32, err error) {
					if err != nil {
						done(err)
						return
					}
					fs.destroyInode(target, in, done)
				}
				w.scanDir(dirIno, visitUnlink, (*walk).matchScanned)
			}
			if in.Mode == ModeDir {
				fs.ensureDirEmpty(target, func(err error) {
					if err != nil {
						done(err)
						return
					}
					unlink()
				})
				return
			}
			unlink()
		})
	})
}

// visitUnlink clears the slot binding w.name to inode w.found.
func visitUnlink(w *walk, slot []byte) (stop, mutate bool) {
	if stop, _ = visitMatch(w, slot); stop {
		clear(slot)
	}
	return stop, stop
}

// ensureDirEmpty fails with ErrNotEmpty if the directory has live entries.
func (fs *FS) ensureDirEmpty(ino uint32, done func(error)) {
	w := fs.walk()
	w.doneErr = done
	w.scanDir(ino, visitLive, (*walk).liveScanned)
}

// visitLive counts live slots (the whole directory is walked either way).
func visitLive(w *walk, slot []byte) (stop, mutate bool) {
	if slotIno(slot) != 0 {
		w.found++
	}
	return false, false
}

func (w *walk) liveScanned() {
	if w.found != 0 {
		w.finish(ErrNotEmpty)
		return
	}
	w.finish(nil)
}

// destroyInode frees an inode's data blocks and the inode itself.
func (fs *FS) destroyInode(ino uint32, in Inode, done func(error)) {
	if in.Mode == ModeFile {
		fs.Truncate(ino, 0, func(err error) {
			if err != nil {
				done(err)
				return
			}
			fs.reapInode(ino, done)
		})
		return
	}
	// Directory: free its blocks directly.
	w := fs.walk()
	w.ino, w.in, w.doneErr, w.reap = ino, in, done, true
	w.cur, w.end = 0, int64((in.Size+BlockSize-1)/BlockSize)
	w.truncBlock()
}

// reapInode marks an inode free on disk and in the bitmap.
func (fs *FS) reapInode(ino uint32, done func(error)) {
	fs.putInode(ino, Inode{}, func(err error) {
		if err != nil {
			done(err)
			return
		}
		fs.freeInode(ino, done)
	})
}

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
