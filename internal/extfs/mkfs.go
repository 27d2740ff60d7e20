package extfs

import (
	"fmt"

	"ncache/internal/blockdev"
)

// Formatter builds a volume offline through blockdev.DirectAccess: no
// virtual time passes, which is how experiments lay down multi-gigabyte
// file sets before the measured run starts.
type Formatter struct {
	dev blockdev.DirectAccess
	sb  SuperBlock

	// nextData is the contiguous-allocation cursor.
	nextData int64
	nextIno  uint32

	// rootEnts accumulates root directory entries until Flush.
	rootEnts []Dirent
	// blk is AddFile's block buffer: PokeBlock copies it out.
	blk []byte
}

// FileSpec records where a formatted file landed, so experiments can verify
// content end to end without reading through the stack.
type FileSpec struct {
	Name     string
	Ino      uint32
	Size     uint64
	StartLBN int64 // first data block; the file is contiguous
	Blocks   int64
}

// Format writes a fresh volume layout and returns a Formatter for
// populating it.
func Format(dev blockdev.DirectAccess, numInodes uint32) (*Formatter, error) {
	g := dev.Geometry()
	if g.BlockSize != BlockSize {
		return nil, fmt.Errorf("extfs: device block size %d, want %d", g.BlockSize, BlockSize)
	}
	sb := Layout(g.NumBlocks, numInodes)
	if sb.DataStart >= g.NumBlocks {
		return nil, fmt.Errorf("extfs: device too small: %d blocks", g.NumBlocks)
	}
	f := &Formatter{
		dev:      dev,
		sb:       sb,
		nextData: sb.DataStart,
		nextIno:  RootIno + 1,
		blk:      make([]byte, BlockSize),
	}
	blk := make([]byte, BlockSize)
	EncodeSuper(sb, blk)
	dev.PokeBlock(0, blk)

	// Zero bitmaps and inode table.
	zero := make([]byte, BlockSize)
	for b := sb.InodeBitmapStart; b < sb.DataStart; b++ {
		dev.PokeBlock(b, zero)
	}
	// Reserve: inode 0 (invalid) and the root inode.
	f.setBit(sb.InodeBitmapStart, 0)
	f.setBit(sb.InodeBitmapStart, int64(RootIno))
	// Mark all layout blocks allocated in the block bitmap.
	f.setBits(sb.BlockBitmapStart, 0, sb.DataStart)
	// Root directory: one empty block.
	rootBlk := f.allocData(1)
	dev.PokeBlock(rootBlk, zero)
	f.pokeInode(RootIno, Inode{
		Mode:   ModeDir,
		Links:  1,
		Size:   BlockSize,
		Direct: [NDirect]uint32{uint32(rootBlk)},
	})
	return f, nil
}

// setBit marks one bitmap bit through direct access.
func (f *Formatter) setBit(regionStart, idx int64) { f.setBits(regionStart, idx, 1) }

// setBits marks the n bitmap bits from idx, one device round trip per bitmap
// block (a 384 MB file is 98 304 bits in three of them), a byte at a time
// where the run covers whole bytes.
func (f *Formatter) setBits(regionStart, idx, n int64) {
	const bitsPerBlock = BlockSize * 8
	for end := idx + n; idx < end; {
		base := idx / bitsPerBlock * bitsPerBlock
		lbn := regionStart + idx/bitsPerBlock
		blk := f.dev.PeekBlock(lbn)
		lo, hi := idx-base, min(end-base, bitsPerBlock)
		for lo < hi {
			if lo%8 == 0 && hi-lo >= 8 {
				blk[lo/8] = 0xff
				lo += 8
			} else {
				blk[lo/8] |= 1 << (lo % 8)
				lo++
			}
		}
		f.dev.PokeBlock(lbn, blk)
		idx = base + hi
	}
}

// pokeInode writes an inode slot through direct access.
func (f *Formatter) pokeInode(ino uint32, in Inode) {
	lbn := f.sb.InodeTableStart + int64(ino)/InodesPerBlock
	off := (int64(ino) % InodesPerBlock) * InodeSize
	blk := f.dev.PeekBlock(lbn)
	EncodeInode(in, blk[off:off+InodeSize])
	f.dev.PokeBlock(lbn, blk)
}

// allocData reserves n contiguous data blocks and marks them in the bitmap.
func (f *Formatter) allocData(n int64) int64 {
	start := f.nextData
	f.setBits(f.sb.BlockBitmapStart, start, n)
	f.nextData += n
	return start
}

// AddFile creates a contiguous file in the root directory. content may be
// nil, in which case block contents come from the device's Synthesize
// function (deterministic, storage-free) — the standard arrangement for
// multi-gigabyte benchmark files.
func (f *Formatter) AddFile(name string, size uint64, content func(fileOff uint64, dst []byte)) (FileSpec, error) {
	if len(name) > MaxNameLen {
		return FileSpec{}, ErrNameTooLong
	}
	nblocks := int64((size + BlockSize - 1) / BlockSize)
	if nblocks > MaxFileBlocks {
		return FileSpec{}, ErrFileTooBig
	}
	// The run is the data blocks, then the indirect block, the double
	// indirect block and its indirect blocks: check it all before the first
	// write, so a file that does not fit leaves the volume as it was.
	var ptrBlocks int64
	if nblocks > NDirect {
		ptrBlocks = 1
	}
	rem := nblocks - NDirect - PtrsPerBlock
	if rem > 0 {
		ptrBlocks += 1 + (rem+PtrsPerBlock-1)/PtrsPerBlock
	}
	ino := f.nextIno
	if ino >= f.sb.NumInodes {
		return FileSpec{}, ErrNoInodes
	}
	if f.nextData+nblocks+ptrBlocks > f.sb.NumBlocks {
		return FileSpec{}, ErrNoSpace
	}
	f.nextIno++
	f.setBit(f.sb.InodeBitmapStart, int64(ino))
	start := f.allocData(nblocks + ptrBlocks)
	next := start + nblocks // the next pointer block
	in := Inode{Mode: ModeFile, Links: 1, Size: size}

	// Wire block pointers: direct, then indirect, then double indirect.
	ptr := func(i int64) uint32 { return uint32(start + i) }
	for i := int64(0); i < nblocks && i < NDirect; i++ {
		in.Direct[i] = ptr(i)
	}
	if nblocks > NDirect {
		in.Indirect = uint32(next)
		blk := f.blk
		clear(blk)
		for i := int64(0); i < PtrsPerBlock && NDirect+i < nblocks; i++ {
			putBE32(blk[i*4:], ptr(NDirect+i))
		}
		f.dev.PokeBlock(next, blk)
		next++
	}
	if rem > 0 {
		dindirect := next
		next++
		in.DIndirect = uint32(dindirect)
		outer := make([]byte, BlockSize)
		for o := int64(0); o*PtrsPerBlock < rem; o++ {
			ind := next
			next++
			putBE32(outer[o*4:], uint32(ind))
			blk := f.blk
			clear(blk)
			for i := int64(0); i < PtrsPerBlock; i++ {
				fb := NDirect + PtrsPerBlock + o*PtrsPerBlock + i
				if fb >= nblocks {
					break
				}
				putBE32(blk[i*4:], ptr(fb))
			}
			f.dev.PokeBlock(ind, blk)
		}
		f.dev.PokeBlock(dindirect, outer)
	}
	f.pokeInode(ino, in)

	if content != nil {
		buf := f.blk
		for i := int64(0); i < nblocks; i++ {
			clear(buf)
			content(uint64(i)*BlockSize, buf)
			f.dev.PokeBlock(start+i, buf)
		}
	}
	f.rootEnts = append(f.rootEnts, Dirent{Ino: ino, Name: name})
	return FileSpec{Name: name, Ino: ino, Size: size, StartLBN: start, Blocks: nblocks}, nil
}

// Flush writes accumulated root directory entries, spilling into indirect
// blocks for large page sets. Call once after adding files.
func (f *Formatter) Flush() error {
	rootBlkData := f.dev.PeekBlock(f.sb.InodeTableStart + int64(RootIno)/InodesPerBlock)
	root := DecodeInode(rootBlkData[(int64(RootIno)%InodesPerBlock)*InodeSize:])

	needBlocks := (len(f.rootEnts) + DirentsPerBlock - 1) / DirentsPerBlock
	if needBlocks == 0 {
		needBlocks = 1
	}
	if needBlocks > NDirect+PtrsPerBlock {
		return fmt.Errorf("extfs: too many root entries (%d)", len(f.rootEnts))
	}
	// Resolve (allocating as needed) the LBN of each directory block.
	lbns := make([]int64, needBlocks)
	var indBlk []byte
	for i := 0; i < needBlocks; i++ {
		switch {
		case i < NDirect:
			if root.Direct[i] == 0 {
				root.Direct[i] = uint32(f.allocData(1))
			}
			lbns[i] = int64(root.Direct[i])
		default:
			if indBlk == nil { // Format gives the root no indirect block
				root.Indirect = uint32(f.allocData(1))
				indBlk = make([]byte, BlockSize)
			}
			lbn := f.allocData(1)
			putBE32(indBlk[(i-NDirect)*4:], uint32(lbn))
			lbns[i] = lbn
		}
	}
	if indBlk != nil {
		f.dev.PokeBlock(int64(root.Indirect), indBlk)
	}
	root.Size = uint64(needBlocks) * BlockSize
	for bi := 0; bi < needBlocks; bi++ {
		blk := make([]byte, BlockSize)
		for si := 0; si < DirentsPerBlock; si++ {
			idx := bi*DirentsPerBlock + si
			if idx >= len(f.rootEnts) {
				break
			}
			if err := EncodeDirent(f.rootEnts[idx], blk[si*DirentSize:]); err != nil {
				return err
			}
		}
		f.dev.PokeBlock(lbns[bi], blk)
	}
	f.pokeInode(RootIno, root)
	return nil
}

// putBE32 writes a big-endian uint32.
func putBE32(dst []byte, v uint32) {
	dst[0] = byte(v >> 24)
	dst[1] = byte(v >> 16)
	dst[2] = byte(v >> 8)
	dst[3] = byte(v)
}
