package extfs

// The closure-per-block walk the file system used through PR 15: one closure
// chain per file block (bmap → withPtrBlock → ptrEntry → its cache.Get
// callback), a range resolved one block at a time, a directory scanned one
// decoded Dirent at a time. It is kept, unchanged but for the oracle prefix,
// as the differential oracle for the record-driven walk in walk.go and
// ops.go: same answers, same on-disk image, and the same cache bookkeeping —
// hits, misses, evictions, LRU order — and engine event count.

import (
	"encoding/binary"
	"fmt"

	"ncache/internal/buffercache"
)

// oracleDecodeDirent is the PR 15 decoder (an over-long length truncates).
func oracleDecodeDirent(src []byte) Dirent {
	n := int(src[4])
	if n > MaxNameLen {
		n = MaxNameLen
	}
	return Dirent{Ino: binary.BigEndian.Uint32(src[0:]), Name: string(src[5 : 5+n])}
}

// oracleAlloc reserves a data block, zeroed in cache if zeroed is set, on a
// walk record of its own: the PR 15 allocBlock and allocZeroedBlock, whose
// bitmap search the walk now does in place.
func (fs *FS) oracleAlloc(zeroed bool, done func(int64, error)) {
	w := fs.walk()
	w.doneErr = func(err error) { done(0, err) }
	w.allocBlock(zeroed, func(w *walk) {
		lbn := w.bits.idx
		w.retire()
		done(lbn, nil)
	})
}

// oracleBmap resolves a file block number to a device block, optionally
// allocating. It returns (0, nil) for holes when alloc is false. The inode
// is updated in place; the caller persists it if modified (reported via
// changed). fresh reports that this call allocated the data block — its
// on-disk content is stale (possibly a freed block's old bytes) and the
// caller must not read-fill it.
func (fs *FS) oracleBmap(in *Inode, fbn int64, alloc bool, done func(lbn int64, changed, fresh bool, err error)) {
	switch {
	case fbn < 0 || fbn >= MaxFileBlocks:
		done(0, false, false, fmt.Errorf("%w: block %d", ErrFileTooBig, fbn))

	case fbn < NDirect:
		cur := int64(in.Direct[fbn])
		if cur != 0 || !alloc {
			done(cur, false, false, nil)
			return
		}
		fs.oracleAlloc(false, func(lbn int64, err error) {
			if err != nil {
				done(0, false, false, err)
				return
			}
			in.Direct[fbn] = uint32(lbn)
			done(lbn, true, true, nil)
		})

	case fbn < NDirect+PtrsPerBlock:
		idx := fbn - NDirect
		fs.oracleWithPtrBlock(int64(in.Indirect), alloc, func(ind int64, inoChanged bool, err error) {
			if err != nil {
				done(0, false, false, err)
				return
			}
			if ind == 0 {
				done(0, false, false, nil) // hole
				return
			}
			if inoChanged {
				in.Indirect = uint32(ind)
			}
			fs.oraclePtrEntry(ind, idx, alloc, func(lbn int64, fresh bool, err error) {
				done(lbn, inoChanged, fresh, err)
			})
		})

	default:
		idx := fbn - NDirect - PtrsPerBlock
		outer := idx / PtrsPerBlock
		inner := idx % PtrsPerBlock
		fs.oracleWithPtrBlock(int64(in.DIndirect), alloc, func(dind int64, inoChanged bool, err error) {
			if err != nil {
				done(0, false, false, err)
				return
			}
			if dind == 0 {
				done(0, false, false, nil)
				return
			}
			if inoChanged {
				in.DIndirect = uint32(dind)
			}
			fs.oraclePtrEntryOrAlloc(dind, outer, alloc, func(ind int64, err error) {
				if err != nil {
					done(0, false, false, err)
					return
				}
				if ind == 0 {
					done(0, inoChanged, false, nil)
					return
				}
				fs.oraclePtrEntry(ind, inner, alloc, func(lbn int64, fresh bool, err error) {
					done(lbn, inoChanged, fresh, err)
				})
			})
		})
	}
}

// oracleWithPtrBlock ensures a pointer block exists (allocating if requested).
func (fs *FS) oracleWithPtrBlock(cur int64, alloc bool, done func(lbn int64, changed bool, err error)) {
	if cur != 0 || !alloc {
		done(cur, false, nil)
		return
	}
	fs.oracleAlloc(true, func(lbn int64, err error) {
		done(lbn, true, err)
	})
}

// oraclePtrEntry reads (and optionally allocates) entry idx of a pointer block.
// fresh reports a new allocation.
func (fs *FS) oraclePtrEntry(ptrBlk, idx int64, alloc bool, done func(int64, bool, error)) {
	fs.cache.Get(ptrBlk, true, func(b *buffercache.Block, err error) {
		if err != nil {
			done(0, false, err)
			return
		}
		off := idx * 4
		cur := int64(uint32(b.Data[off])<<24 | uint32(b.Data[off+1])<<16 | uint32(b.Data[off+2])<<8 | uint32(b.Data[off+3]))
		if cur != 0 || !alloc {
			fs.cache.Unpin(b)
			done(cur, false, nil)
			return
		}
		fs.oracleAlloc(false, func(lbn int64, aerr error) {
			if aerr != nil {
				fs.cache.Unpin(b)
				done(0, false, aerr)
				return
			}
			v := uint32(lbn)
			b.Data[off] = byte(v >> 24)
			b.Data[off+1] = byte(v >> 16)
			b.Data[off+2] = byte(v >> 8)
			b.Data[off+3] = byte(v)
			fs.cache.MarkDirty(b)
			fs.cache.Unpin(b)
			done(lbn, true, nil)
		})
	})
}

// oraclePtrEntryOrAlloc is oraclePtrEntry but allocates a zeroed pointer block as the
// entry (for the outer level of double indirection).
func (fs *FS) oraclePtrEntryOrAlloc(ptrBlk, idx int64, alloc bool, done func(int64, error)) {
	fs.cache.Get(ptrBlk, true, func(b *buffercache.Block, err error) {
		if err != nil {
			done(0, err)
			return
		}
		off := idx * 4
		cur := int64(uint32(b.Data[off])<<24 | uint32(b.Data[off+1])<<16 | uint32(b.Data[off+2])<<8 | uint32(b.Data[off+3]))
		if cur != 0 || !alloc {
			fs.cache.Unpin(b)
			done(cur, nil)
			return
		}
		fs.oracleAlloc(true, func(lbn int64, aerr error) {
			if aerr != nil {
				fs.cache.Unpin(b)
				done(0, aerr)
				return
			}
			v := uint32(lbn)
			b.Data[off] = byte(v >> 24)
			b.Data[off+1] = byte(v >> 16)
			b.Data[off+2] = byte(v >> 8)
			b.Data[off+3] = byte(v)
			fs.cache.MarkDirty(b)
			fs.cache.Unpin(b)
			done(lbn, nil)
		})
	})
}

// oracleBmapRange resolves a run of file blocks to device blocks sequentially.
// freshs marks blocks allocated by this call (stale on-disk content).
func (fs *FS) oracleBmapRange(in *Inode, fbn int64, count int, alloc bool, done func(lbns []int64, freshs []bool, changed bool, err error)) {
	lbns := make([]int64, count)
	freshs := make([]bool, count)
	anyChanged := false
	var step func(i int)
	step = func(i int) {
		if i == count {
			done(lbns, freshs, anyChanged, nil)
			return
		}
		fs.oracleBmap(in, fbn+int64(i), alloc, func(lbn int64, changed, fresh bool, err error) {
			if err != nil {
				done(nil, nil, anyChanged, err)
				return
			}
			if changed {
				anyChanged = true
			}
			lbns[i] = lbn
			freshs[i] = fresh
			step(i + 1)
		})
	}
	step(0)
}

// oracleDirScan walks a directory's entries. visit returns true to stop; stopped
// reports whether visit stopped the scan. visit may mutate the block (the
// scanner marks it dirty when mutate is returned true).
func (fs *FS) oracleDirScan(in *Inode, visit func(d Dirent, b *buffercache.Block, slotOff int) (stop, mutate bool), done func(stopped bool, err error)) {
	nblocks := int64((in.Size + BlockSize - 1) / BlockSize)
	var step func(fbn int64)
	step = func(fbn int64) {
		if fbn == nblocks {
			done(false, nil)
			return
		}
		fs.oracleBmap(in, fbn, false, func(lbn int64, _, _ bool, err error) {
			if err != nil {
				done(false, err)
				return
			}
			if lbn == 0 {
				step(fbn + 1)
				return
			}
			fs.cache.Get(lbn, true, func(b *buffercache.Block, err error) {
				if err != nil {
					done(false, err)
					return
				}
				limit := int(in.Size - uint64(fbn)*BlockSize)
				if limit > BlockSize {
					limit = BlockSize
				}
				for so := 0; so+DirentSize <= limit; so += DirentSize {
					d := oracleDecodeDirent(b.Data[so : so+DirentSize])
					stop, mutate := visit(d, b, so)
					if mutate {
						fs.cache.MarkDirty(b)
					}
					if stop {
						fs.cache.Unpin(b)
						done(true, nil)
						return
					}
				}
				fs.cache.Unpin(b)
				step(fbn + 1)
			})
		})
	}
	step(0)
}
