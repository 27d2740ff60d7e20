package extfs

import (
	"bytes"
	"errors"
	"testing"

	"ncache/internal/blockdev"
	"ncache/internal/buffercache"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// diskLower adapts a MemDisk as a buffer-cache Lower for isolated fs tests
// (the full stack goes through iSCSI; see the passthru package).
type diskLower struct {
	dev  *blockdev.MemDisk
	pool *netbuf.Pool // the chains reads return are built on it
}

func (l *diskLower) BlockSize() int { return l.dev.Geometry().BlockSize }

func (l *diskLower) ReadAt(lbn int64, count int, meta bool, done func(*netbuf.Chain, error)) {
	data := make([]byte, count*l.BlockSize())
	l.dev.ReadBlocks(lbn, [][]byte{data}, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(l.pool.GetChain(data), nil)
	})
}

func (l *diskLower) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	flat := data.Flatten()
	data.Release()
	l.dev.WriteBlocks(lbn, [][]byte{flat}, done)
}

type fsRig struct {
	eng   *sim.Engine
	node  *simnet.Node
	disk  *blockdev.MemDisk
	cache *buffercache.Cache
	fs    *FS
}

func newFsRig(t *testing.T, cacheBlocks int) *fsRig {
	t.Helper()
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	disk := blockdev.NewMemDisk(eng, "d0", blockdev.Geometry{BlockSize: BlockSize, NumBlocks: 8192}, blockdev.Model{})
	if _, err := Format(disk, 512); err != nil {
		t.Fatalf("Format: %v", err)
	}
	cache := buffercache.New(node, &diskLower{dev: disk, pool: node.TxPool}, cacheBlocks)
	r := &fsRig{eng: eng, node: node, disk: disk, cache: cache}
	Mount(node, cache, func(fs *FS, err error) {
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		r.fs = fs
	})
	eng.Run()
	if r.fs == nil {
		t.Fatal("mount did not complete")
	}
	return r
}

// newCacheOver builds a second buffer cache over a rig's disk (remount
// support for durability tests).
func newCacheOver(r *fsRig) *buffercache.Cache {
	return buffercache.New(r.node, &diskLower{dev: r.disk, pool: r.node.TxPool}, 256)
}

// run drives the engine and fails the test on error.
func (r *fsRig) run(t *testing.T) {
	t.Helper()
	r.eng.Run()
}

// copyFiller returns a Filler that physically copies from src into the
// block's page.
func copyFiller(c *buffercache.Cache, src []byte) Filler {
	return func(b *buffercache.Block, blockOff, count, srcOff int) {
		copy(c.Page(b)[blockOff:blockOff+count], src[srcOff:srcOff+count])
	}
}

// readAll reads [off, off+n) into a byte slice through the extent API.
func (r *fsRig) readAll(t *testing.T, ino uint32, off uint64, n int) ([]byte, bool) {
	t.Helper()
	var out []byte
	var eof bool
	ok := false
	r.fs.Read(ino, off, n, func(res *ReadResult, err error) {
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		for _, e := range res.Extents {
			if e.Block == nil {
				out = append(out, make([]byte, e.Len)...)
				continue
			}
			out = append(out, e.Block.Data[e.Off:e.Off+e.Len]...)
		}
		eof = res.EOF
		res.Done(r.fs)
		ok = true
	})
	r.run(t)
	if !ok {
		t.Fatal("read did not complete")
	}
	return out, eof
}

func (r *fsRig) create(t *testing.T, name string) uint32 {
	t.Helper()
	var ino uint32
	r.fs.Create(RootIno, []byte(name), ModeFile, func(i uint32, err error) {
		if err != nil {
			t.Fatalf("Create(%s): %v", name, err)
		}
		ino = i
	})
	r.run(t)
	return ino
}

// list reads the root directory's names.
func (r *fsRig) list(t *testing.T) []string {
	t.Helper()
	var names []string
	r.fs.Readdir(RootIno, func(l *Listing, err error) {
		if err != nil {
			t.Fatalf("Readdir: %v", err)
		}
		for i := 0; i < l.Len(); i++ {
			names = append(names, string(l.Name(i)))
		}
	})
	r.run(t)
	return names
}

func (r *fsRig) write(t *testing.T, ino uint32, off uint64, data []byte) {
	t.Helper()
	done := false
	r.fs.Write(ino, off, len(data), copyFiller(r.cache, data), func(err error) {
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		done = true
	})
	r.run(t)
	if !done {
		t.Fatal("write did not complete")
	}
}

func TestFormatMountFsck(t *testing.T) {
	r := newFsRig(t, 256)
	ok := false
	r.fs.Fsck(func(err error) {
		if err != nil {
			t.Fatalf("Fsck: %v", err)
		}
		ok = true
	})
	r.run(t)
	if !ok {
		t.Fatal("fsck did not complete")
	}
	if r.fs.sb.Magic != Magic {
		t.Fatal("bad super")
	}
}

func TestFormattedFileVisibleAndReadable(t *testing.T) {
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	disk := blockdev.NewMemDisk(eng, "d0", blockdev.Geometry{BlockSize: BlockSize, NumBlocks: 8192}, blockdev.Model{})
	f, err := Format(disk, 512)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	content := func(off uint64, dst []byte) {
		for i := range dst {
			dst[i] = byte(off/BlockSize + uint64(i)%200)
		}
	}
	spec, err := f.AddFile("big.dat", 100*BlockSize, content)
	if err != nil {
		t.Fatalf("AddFile: %v", err)
	}
	if err := f.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	cache := buffercache.New(node, &diskLower{dev: disk, pool: node.TxPool}, 512)
	r := &fsRig{eng: eng, node: node, disk: disk, cache: cache}
	Mount(node, cache, func(fs *FS, err error) {
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		r.fs = fs
	})
	r.run(t)

	var ino uint32
	r.fs.Lookup(RootIno, []byte("big.dat"), func(i uint32, err error) {
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		ino = i
	})
	r.run(t)
	if ino != spec.Ino {
		t.Fatalf("ino = %d, want %d", ino, spec.Ino)
	}

	// Read a range spanning direct→indirect pointers (blocks 8..12).
	got, _ := r.readAll(t, ino, 8*BlockSize, 5*BlockSize)
	want := make([]byte, 5*BlockSize)
	for i := 0; i < 5; i++ {
		content(uint64(8+i)*BlockSize, want[i*BlockSize:(i+1)*BlockSize])
	}
	if !bytes.Equal(got, want) {
		t.Fatal("formatted file content mismatch across direct/indirect boundary")
	}

	var attr Attr
	r.fs.Getattr(ino, func(a Attr, err error) {
		if err != nil {
			t.Fatalf("Getattr: %v", err)
		}
		attr = a
	})
	r.run(t)
	if attr.Size != 100*BlockSize || attr.Mode != ModeFile {
		t.Fatalf("attr = %+v", attr)
	}
}

// A file that does not fit leaves the volume as it was: AddFile checks the
// inode and the whole run, pointer blocks included, before its first write.
// A run past the block bitmap's end would otherwise set bits in the inode
// table that follows it, over the root inode.
func TestAddFileThatDoesNotFitWritesNothing(t *testing.T) {
	eng := sim.NewEngine()
	disk := blockdev.NewMemDisk(eng, "d0", blockdev.Geometry{BlockSize: BlockSize, NumBlocks: 40000}, blockdev.Model{})
	f, err := Format(disk, 1024)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	layout := f.sb.DataStart + 1 // the layout blocks and the root directory's block
	before := make([][]byte, layout)
	for b := range before {
		before[b] = disk.PeekBlock(int64(b))
	}
	if _, err := f.AddFile("huge.dat", 80000*BlockSize, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("AddFile of 80000 blocks on a 40000-block disk = %v, want ErrNoSpace", err)
	}
	for b := range before {
		if !bytes.Equal(disk.PeekBlock(int64(b)), before[b]) {
			t.Errorf("block %d changed by an AddFile that failed", b)
		}
	}
	spec, err := f.AddFile("small.dat", 3*BlockSize, nil)
	if err != nil {
		t.Fatalf("AddFile after the failure: %v", err)
	}
	if spec.Ino != RootIno+1 || spec.StartLBN != layout {
		t.Errorf("AddFile after the failure landed at inode %d, block %d; want %d, %d", spec.Ino, spec.StartLBN, RootIno+1, layout)
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	r := newFsRig(t, 256)
	ino := r.create(t, "hello.txt")
	data := []byte("hello, network-centric world")
	r.write(t, ino, 0, data)
	got, eof := r.readAll(t, ino, 0, 1024)
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
	if !eof {
		t.Fatal("expected EOF")
	}
}

func TestPartialAndCrossBlockWrites(t *testing.T) {
	r := newFsRig(t, 256)
	ino := r.create(t, "f")
	// Lay down two blocks, then overwrite a range crossing the boundary.
	base := make([]byte, 2*BlockSize)
	for i := range base {
		base[i] = 'A'
	}
	r.write(t, ino, 0, base)
	patch := bytes.Repeat([]byte{'B'}, 1000)
	r.write(t, ino, BlockSize-500, patch)

	got, _ := r.readAll(t, ino, 0, 2*BlockSize)
	want := append([]byte(nil), base...)
	copy(want[BlockSize-500:], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("cross-block partial write corrupted data")
	}
}

func TestLargeFileIndirectAndDoubleIndirect(t *testing.T) {
	r := newFsRig(t, 2048)
	ino := r.create(t, "big")
	// Write one block past the single-indirect region (block NDirect +
	// PtrsPerBlock + 3 → double indirect).
	fbn := int64(NDirect + PtrsPerBlock + 3)
	data := bytes.Repeat([]byte{0xCD}, BlockSize)
	r.write(t, ino, uint64(fbn)*BlockSize, data)

	got, _ := r.readAll(t, ino, uint64(fbn)*BlockSize, BlockSize)
	if !bytes.Equal(got, data) {
		t.Fatal("double-indirect block round trip failed")
	}
	var attr Attr
	r.fs.Getattr(ino, func(a Attr, err error) { attr = a })
	r.run(t)
	if attr.Size != uint64(fbn+1)*BlockSize {
		t.Fatalf("size = %d", attr.Size)
	}
	// The blocks before it are holes and read as zeros.
	hole, _ := r.readAll(t, ino, 0, BlockSize)
	if !bytes.Equal(hole, make([]byte, BlockSize)) {
		t.Fatal("hole did not read as zeros")
	}
}

func TestReaddirAndRemove(t *testing.T) {
	r := newFsRig(t, 256)
	names := []string{"a", "b", "c"}
	for _, n := range names {
		r.create(t, n)
	}
	ents := r.list(t)
	if len(ents) != 3 {
		t.Fatalf("entries = %v", ents)
	}

	removed := false
	r.fs.Remove(RootIno, []byte("b"), func(err error) {
		if err != nil {
			t.Fatalf("Remove: %v", err)
		}
		removed = true
	})
	r.run(t)
	if !removed {
		t.Fatal("remove did not complete")
	}
	r.fs.Lookup(RootIno, []byte("b"), func(_ uint32, err error) {
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("Lookup after remove: %v", err)
		}
	})
	r.run(t)
	// The slot is reused.
	r.create(t, "d")
	if ents = r.list(t); len(ents) != 3 {
		t.Fatalf("entries after reuse = %v", ents)
	}
}

func TestRemoveFreesBlocks(t *testing.T) {
	r := newFsRig(t, 256)
	ino := r.create(t, "victim")
	r.write(t, ino, 0, make([]byte, 20*BlockSize)) // spans indirect
	r.fs.Remove(RootIno, []byte("victim"), func(err error) {
		if err != nil {
			t.Fatalf("Remove: %v", err)
		}
	})
	r.run(t)
	// The inode is dead (checked before its number can be recycled).
	r.fs.Getattr(ino, func(_ Attr, err error) {
		if err == nil {
			t.Fatal("removed inode still live")
		}
	})
	r.run(t)
	// A new file can reuse the space; allocation succeeds repeatedly.
	ino2 := r.create(t, "next")
	r.write(t, ino2, 0, make([]byte, 20*BlockSize))
	var attr Attr
	r.fs.Getattr(ino2, func(a Attr, err error) {
		if err != nil {
			t.Fatalf("Getattr: %v", err)
		}
		attr = a
	})
	r.run(t)
	if attr.Size != 20*BlockSize {
		t.Fatalf("size = %d", attr.Size)
	}
}

func TestSyncPersistsToDisk(t *testing.T) {
	r := newFsRig(t, 256)
	ino := r.create(t, "durable")
	data := bytes.Repeat([]byte{0x5A}, BlockSize)
	r.write(t, ino, 0, data)
	r.fs.Sync(func(err error) {
		if err != nil {
			t.Fatalf("Sync: %v", err)
		}
	})
	r.run(t)
	// Find the data block via a second mount on the same disk.
	eng2 := sim.NewEngine()
	node2 := simnet.NewNode(eng2, "app2", simnet.DefaultProfile())
	// Transplant disk contents: reuse the same MemDisk but a new engine
	// is not possible (its arm belongs to the old engine) — instead
	// verify through the original rig after dropping the cache.
	_ = eng2
	_ = node2
	found := false
	for lbn := r.fs.sb.DataStart; lbn < r.fs.sb.DataStart+64; lbn++ {
		if bytes.Equal(r.disk.PeekBlock(lbn), data) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("synced data not on disk")
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	r := newFsRig(t, 256)
	r.create(t, "dup")
	r.fs.Create(RootIno, []byte("dup"), ModeFile, func(_ uint32, err error) {
		if !errors.Is(err, ErrExists) {
			t.Fatalf("duplicate create: %v", err)
		}
	})
	r.run(t)
}

// TestCreateFailureFreesInode: a CREATE that allocates its inode and then
// cannot add the dirent (the full root directory cannot grow: no data block
// is free) frees the inode again, so the next allocation returns the same
// number and no inode is left with a link and no name.
func TestCreateFailureFreesInode(t *testing.T) {
	r := newFsRig(t, 256)
	var last uint32
	for i := 0; i < DirentsPerBlock; i++ { // the root's one block is full
		last = r.create(t, fmtName(i))
	}
	if size := r.inode(t, RootIno).Size; size != BlockSize {
		t.Fatalf("root directory is %d bytes, want one full block", size)
	}
	sb := r.fs.sb
	editBitmap := func(lbn int64, edit func(data []byte)) {
		r.cache.Get(lbn, true, func(b *buffercache.Block, err error) {
			if err != nil {
				t.Fatalf("Get bitmap: %v", err)
			}
			edit(b.Data)
			r.cache.MarkDirty(b)
			r.cache.Unpin(b)
		})
		r.run(t)
	}
	for i := int64(0); i < sb.BlockBitmapLen; i++ { // every data block taken
		editBitmap(sb.BlockBitmapStart+i, func(data []byte) {
			for j := range data {
				data[j] = 0xff
			}
		})
	}
	var err error
	r.fs.Create(RootIno, []byte("overflow"), ModeFile, func(_ uint32, e error) { err = e })
	r.run(t)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Create in a full volume = %v, want ErrNoSpace", err)
	}
	if in := r.inode(t, last+1); in != (Inode{}) {
		t.Fatalf("inode %d after the failed Create = %+v, want free", last+1, in)
	}
	free := sb.NumBlocks - 1 // free the last block
	editBitmap(sb.BlockBitmapStart+free/(BlockSize*8), func(data []byte) {
		data[(free/8)%BlockSize] &^= 1 << (free % 8)
	})
	if ino := r.create(t, "overflow"); ino != last+1 {
		t.Fatalf("Create after the failure got inode %d, want %d again", ino, last+1)
	}
}

func TestLookupErrors(t *testing.T) {
	r := newFsRig(t, 256)
	r.fs.Lookup(RootIno, []byte("ghost"), func(_ uint32, err error) {
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing lookup: %v", err)
		}
	})
	ino := r.create(t, "plain")
	r.run(t)
	r.fs.Lookup(ino, []byte("x"), func(_ uint32, err error) {
		if !errors.Is(err, ErrNotDir) {
			t.Fatalf("lookup in file: %v", err)
		}
	})
	r.run(t)
}

func TestMkdirAndNestedFiles(t *testing.T) {
	r := newFsRig(t, 256)
	var dir uint32
	r.fs.Create(RootIno, []byte("subdir"), ModeDir, func(i uint32, err error) {
		if err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		dir = i
	})
	r.run(t)
	var ino uint32
	r.fs.Create(dir, []byte("inner"), ModeFile, func(i uint32, err error) {
		if err != nil {
			t.Fatalf("create nested: %v", err)
		}
		ino = i
	})
	r.run(t)
	r.write(t, ino, 0, []byte("nested"))
	got, _ := r.readAll(t, ino, 0, 100)
	if string(got) != "nested" {
		t.Fatalf("nested read = %q", got)
	}
	// Removing a non-empty directory fails.
	r.fs.Remove(RootIno, []byte("subdir"), func(err error) {
		if !errors.Is(err, ErrNotEmpty) {
			t.Fatalf("remove non-empty dir: %v", err)
		}
	})
	r.run(t)
	// Empty it, then remove.
	r.fs.Remove(dir, []byte("inner"), func(err error) {
		if err != nil {
			t.Fatalf("remove inner: %v", err)
		}
	})
	r.run(t)
	r.fs.Remove(RootIno, []byte("subdir"), func(err error) {
		if err != nil {
			t.Fatalf("remove empty dir: %v", err)
		}
	})
	r.run(t)
}

func TestManyFilesInRoot(t *testing.T) {
	r := newFsRig(t, 512)
	// Enough files to spill the root directory into a second block.
	for i := 0; i < DirentsPerBlock+10; i++ {
		r.create(t, fmtName(i))
	}
	if ents := r.list(t); len(ents) != DirentsPerBlock+10 {
		t.Fatalf("entries = %d, want %d", len(ents), DirentsPerBlock+10)
	}
}

func fmtName(i int) string {
	return "file-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestCorruptDirentLength: a slot whose length byte exceeds MaxNameLen names
// nothing — not its full name, and not the MaxNameLen-byte prefix the decoder
// used to truncate it to — and Fsck reports it.
func TestCorruptDirentLength(t *testing.T) {
	r := newFsRig(t, 64)
	long := string(bytes.Repeat([]byte("n"), MaxNameLen))
	victim := r.create(t, long)
	r.create(t, "bystander")

	root := r.inode(t, RootIno)
	r.cache.Get(int64(root.Direct[0]), true, func(b *buffercache.Block, err error) {
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		for so := 0; so < BlockSize; so += DirentSize {
			if slot := b.Data[so : so+DirentSize]; slotIno(slot) == victim {
				slot[4] = MaxNameLen + 1 // hand-corrupt the length byte
				r.cache.MarkDirty(b)
			}
		}
		r.cache.Unpin(b)
	})
	r.run(t)

	if name, ok := slotName(append(make([]byte, 4), MaxNameLen+1)); ok {
		t.Errorf("slotName(over-long) = %q, want not ok", name)
	}
	r.fs.Lookup(RootIno, []byte(long), func(ino uint32, err error) {
		if err != ErrNotFound {
			t.Errorf("Lookup of the corrupt slot's name = %d, %v; want ErrNotFound", ino, err)
		}
	})
	r.fs.Lookup(RootIno, []byte("bystander"), func(_ uint32, err error) {
		if err != nil {
			t.Errorf("Lookup(bystander): %v", err)
		}
	})
	if ents := r.list(t); len(ents) != 1 || ents[0] != "bystander" {
		t.Errorf("Readdir = %q; want only bystander", ents)
	}
	r.fs.Fsck(func(err error) {
		if !errors.Is(err, ErrBadDirent) {
			t.Errorf("Fsck = %v, want ErrBadDirent", err)
		}
	})
	r.run(t)
}
