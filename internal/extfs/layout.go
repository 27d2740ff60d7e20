// Package extfs implements the simple inode-based file system (an ext2-lite)
// that the pass-through NFS server and kHTTPd serve from. It lives on a
// remote block device reached through the buffer cache and the iSCSI
// initiator, and — critically for NCache — it distinguishes metadata blocks
// (superblock, bitmaps, inode table, directories, indirect blocks) from
// regular file data on every block request, which is the classification
// signal §3.3 extracts from "the page data structure associated with iSCSI
// requests".
package extfs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// On-disk constants.
const (
	// Magic identifies a formatted volume.
	Magic uint32 = 0x4e434653 // "NCFS"
	// BlockSize is the file system block size, matching the paper's
	// 4 KB buffer-cache chunks.
	BlockSize = 4096
	// InodeSize is the on-disk inode record size.
	InodeSize = 64
	// InodesPerBlock is how many inodes fit one block.
	InodesPerBlock = BlockSize / InodeSize
	// NDirect is the number of direct block pointers per inode.
	NDirect = 10
	// PtrsPerBlock is the number of block pointers in an indirect block.
	PtrsPerBlock = BlockSize / 4
	// DirentSize is the fixed directory record size.
	DirentSize = 64
	// DirentsPerBlock is how many records fit one directory block.
	DirentsPerBlock = BlockSize / DirentSize
	// MaxNameLen is the longest file name.
	MaxNameLen = DirentSize - 6
	// RootIno is the root directory's inode number.
	RootIno uint32 = 1
)

// Inode modes.
const (
	ModeFree uint16 = 0
	ModeFile uint16 = 1
	ModeDir  uint16 = 2
)

// Maximum file size addressable through direct + single + double indirect
// pointers.
const MaxFileBlocks = NDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

// Errors surfaced by the file system.
var (
	ErrBadMagic    = errors.New("extfs: bad superblock magic")
	ErrNotDir      = errors.New("extfs: not a directory")
	ErrIsDir       = errors.New("extfs: is a directory")
	ErrNotFound    = errors.New("extfs: no such file")
	ErrExists      = errors.New("extfs: file exists")
	ErrNoSpace     = errors.New("extfs: out of space")
	ErrNoInodes    = errors.New("extfs: out of inodes")
	ErrNameTooLong = errors.New("extfs: name too long")
	ErrFileTooBig  = errors.New("extfs: file too large")
	ErrNotEmpty    = errors.New("extfs: directory not empty")
	ErrBadIno      = errors.New("extfs: bad inode number")
	ErrBadDirent   = errors.New("extfs: corrupt directory entry")
)

// SuperBlock describes the volume layout.
type SuperBlock struct {
	Magic            uint32
	BlockSize        uint32
	NumBlocks        int64
	NumInodes        uint32
	InodeBitmapStart int64
	InodeBitmapLen   int64
	BlockBitmapStart int64
	BlockBitmapLen   int64
	InodeTableStart  int64
	InodeTableLen    int64
	DataStart        int64
}

// EncodeSuper serializes the superblock into a block-sized buffer.
func EncodeSuper(sb SuperBlock, dst []byte) {
	binary.BigEndian.PutUint32(dst[0:], sb.Magic)
	binary.BigEndian.PutUint32(dst[4:], sb.BlockSize)
	binary.BigEndian.PutUint64(dst[8:], uint64(sb.NumBlocks))
	binary.BigEndian.PutUint32(dst[16:], sb.NumInodes)
	binary.BigEndian.PutUint64(dst[20:], uint64(sb.InodeBitmapStart))
	binary.BigEndian.PutUint64(dst[28:], uint64(sb.InodeBitmapLen))
	binary.BigEndian.PutUint64(dst[36:], uint64(sb.BlockBitmapStart))
	binary.BigEndian.PutUint64(dst[44:], uint64(sb.BlockBitmapLen))
	binary.BigEndian.PutUint64(dst[52:], uint64(sb.InodeTableStart))
	binary.BigEndian.PutUint64(dst[60:], uint64(sb.InodeTableLen))
	binary.BigEndian.PutUint64(dst[68:], uint64(sb.DataStart))
}

// DecodeSuper parses a superblock.
func DecodeSuper(src []byte) (SuperBlock, error) {
	if len(src) < 76 {
		return SuperBlock{}, fmt.Errorf("extfs: short superblock")
	}
	sb := SuperBlock{
		Magic:            binary.BigEndian.Uint32(src[0:]),
		BlockSize:        binary.BigEndian.Uint32(src[4:]),
		NumBlocks:        int64(binary.BigEndian.Uint64(src[8:])),
		NumInodes:        binary.BigEndian.Uint32(src[16:]),
		InodeBitmapStart: int64(binary.BigEndian.Uint64(src[20:])),
		InodeBitmapLen:   int64(binary.BigEndian.Uint64(src[28:])),
		BlockBitmapStart: int64(binary.BigEndian.Uint64(src[36:])),
		BlockBitmapLen:   int64(binary.BigEndian.Uint64(src[44:])),
		InodeTableStart:  int64(binary.BigEndian.Uint64(src[52:])),
		InodeTableLen:    int64(binary.BigEndian.Uint64(src[60:])),
		DataStart:        int64(binary.BigEndian.Uint64(src[68:])),
	}
	if sb.Magic != Magic {
		return SuperBlock{}, ErrBadMagic
	}
	return sb, nil
}

// Inode is the in-memory form of an on-disk inode.
type Inode struct {
	Mode   uint16
	Links  uint16
	Size   uint64
	Direct [NDirect]uint32
	// Indirect and DIndirect are single/double indirect pointer blocks
	// (0 = absent).
	Indirect  uint32
	DIndirect uint32
}

// EncodeInode serializes an inode into its 64-byte slot.
func EncodeInode(ino Inode, dst []byte) {
	binary.BigEndian.PutUint16(dst[0:], ino.Mode)
	binary.BigEndian.PutUint16(dst[2:], ino.Links)
	binary.BigEndian.PutUint64(dst[4:], ino.Size)
	for i := 0; i < NDirect; i++ {
		binary.BigEndian.PutUint32(dst[12+4*i:], ino.Direct[i])
	}
	binary.BigEndian.PutUint32(dst[52:], ino.Indirect)
	binary.BigEndian.PutUint32(dst[56:], ino.DIndirect)
}

// DecodeInode parses an inode slot.
func DecodeInode(src []byte) Inode {
	var ino Inode
	ino.Mode = binary.BigEndian.Uint16(src[0:])
	ino.Links = binary.BigEndian.Uint16(src[2:])
	ino.Size = binary.BigEndian.Uint64(src[4:])
	for i := 0; i < NDirect; i++ {
		ino.Direct[i] = binary.BigEndian.Uint32(src[12+4*i:])
	}
	ino.Indirect = binary.BigEndian.Uint32(src[52:])
	ino.DIndirect = binary.BigEndian.Uint32(src[56:])
	return ino
}

// Dirent is one directory record.
type Dirent struct {
	Ino  uint32
	Name string
}

// EncodeDirent serializes a directory record into its 64-byte slot.
func EncodeDirent(d Dirent, dst []byte) error {
	if len(d.Name) > MaxNameLen {
		return fmt.Errorf("%w: %q", ErrNameTooLong, d.Name)
	}
	putSlot(dst, d.Ino, d.Name)
	return nil
}

// putSlot writes a record binding name (at most MaxNameLen bytes) to ino.
func putSlot[S string | []byte](slot []byte, ino uint32, name S) {
	clear(slot[:DirentSize])
	binary.BigEndian.PutUint32(slot[0:], ino)
	slot[4] = byte(len(name))
	copy(slot[5:], name)
}

// slotIno returns the inode a directory slot binds; zero marks a free slot.
func slotIno(slot []byte) uint32 { return binary.BigEndian.Uint32(slot) }

// slotName returns a slot's name as a view into it. ok is false when the
// length byte exceeds MaxNameLen: the slot is corrupt and names nothing.
func slotName(slot []byte) (name []byte, ok bool) {
	n := int(slot[4])
	if n > MaxNameLen {
		return nil, false
	}
	return slot[5 : 5+n], true
}

// Layout computes a volume layout for a device of numBlocks blocks with the
// given inode count.
func Layout(numBlocks int64, numInodes uint32) SuperBlock {
	inodeBitmapLen := (int64(numInodes) + BlockSize*8 - 1) / (BlockSize * 8)
	blockBitmapLen := (numBlocks + BlockSize*8 - 1) / (BlockSize * 8)
	inodeTableLen := (int64(numInodes) + InodesPerBlock - 1) / InodesPerBlock
	sb := SuperBlock{
		Magic:            Magic,
		BlockSize:        BlockSize,
		NumBlocks:        numBlocks,
		NumInodes:        numInodes,
		InodeBitmapStart: 1,
		InodeBitmapLen:   inodeBitmapLen,
	}
	sb.BlockBitmapStart = sb.InodeBitmapStart + inodeBitmapLen
	sb.BlockBitmapLen = blockBitmapLen
	sb.InodeTableStart = sb.BlockBitmapStart + blockBitmapLen
	sb.InodeTableLen = inodeTableLen
	sb.DataStart = sb.InodeTableStart + inodeTableLen
	return sb
}
