package extfs

import (
	"strings"
	"testing"

	"ncache/internal/buffercache"
	"ncache/internal/netbuf"
)

// The allocation budgets below pin the request-level walks in steady state —
// a resident directory or file, the free lists primed — where every cache
// access is an inline hit and the walk record is the only state.

// TestLookupAllocFree: a LOOKUP that scans 150 slots (three directory
// blocks) compares every name in place and allocates nothing — per slot or
// per call.
func TestLookupAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	r := newFsRig(t, 256)
	var last uint32
	for i := 0; i < 150; i++ {
		last = r.create(t, fmtName(i))
	}
	name, got := []byte(fmtName(149)), uint32(0)
	done := func(ino uint32, err error) {
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		got = ino
	}
	lookup := func() { r.fs.Lookup(RootIno, name, done) }
	lookup()
	if avg := testing.AllocsPerRun(200, lookup); avg != 0 {
		t.Errorf("LOOKUP over 150 slots allocates %.1f objects, want 0", avg)
	}
	if got != last {
		t.Fatalf("Lookup(%s) = %d, want %d", name, got, last)
	}
	missing := func(_ uint32, err error) {
		if err != ErrNotFound {
			t.Fatalf("Lookup(absent): %v", err)
		}
	}
	absent := []byte("absent")
	if avg := testing.AllocsPerRun(200, func() { r.fs.Lookup(RootIno, absent, missing) }); avg != 0 {
		t.Errorf("failed LOOKUP allocates %.1f objects, want 0", avg)
	}
}

// TestCreateRemoveAllocFree: a CREATE and a REMOVE in a resident 150-entry
// directory — each one walk through its lookup, the inode table, the inode
// bitmap, the dirent slot and (for REMOVE) a truncation — allocate nothing.
func TestCreateRemoveAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	r := newFsRig(t, 256)
	for i := 0; i < 150; i++ {
		r.create(t, fmtName(i))
	}
	name := []byte("scratch")
	created := func(ino uint32, err error) {
		if err != nil || ino == 0 {
			t.Fatalf("Create: %d, %v", ino, err)
		}
	}
	removed := func(err error) {
		if err != nil {
			t.Fatalf("Remove: %v", err)
		}
	}
	pair := func() {
		r.fs.Create(RootIno, name, ModeFile, created)
		r.fs.Remove(RootIno, name, removed)
		r.run(t)
	}
	pair()
	if avg := testing.AllocsPerRun(200, pair); avg != 0 {
		t.Errorf("CREATE+REMOVE in a 150-entry directory allocates %.1f objects, want 0", avg)
	}
	if n := len(r.list(t)); n != 150 {
		t.Fatalf("%d entries after the pairs, want 150", n)
	}
}

// TestReaddirAllocFree: a READDIR of a resident 150-entry directory gathers
// the names into the walk's own listing and allocates nothing.
func TestReaddirAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	r := newFsRig(t, 256)
	for i := 0; i < 150; i++ {
		r.create(t, fmtName(i))
	}
	last := fmtName(149)
	listed := func(l *Listing, err error) {
		if err != nil || l.Len() != 150 || string(l.Name(149)) != last {
			t.Fatalf("Readdir: %d entries, %v", l.Len(), err)
		}
	}
	readdir := func() {
		r.fs.Readdir(RootIno, listed)
		r.run(t)
	}
	readdir()
	if avg := testing.AllocsPerRun(200, readdir); avg != 0 {
		t.Errorf("READDIR of 150 entries allocates %.1f objects, want 0", avg)
	}
}

// bigFile writes a file reaching into the double-indirect range and returns
// its inode.
func bigFile(t *testing.T, r *fsRig) uint32 {
	ino := r.create(t, "big")
	blocks := NDirect + PtrsPerBlock + 64
	r.write(t, ino, 0, make([]byte, blocks*BlockSize))
	return ino
}

// TestReadWalkZeroAllocs: a 32 KB READ of resident blocks — through the
// direct pointers, the indirect block, and across the double-indirect edge —
// allocates nothing below the nfs layer: the map walk, the CPU charge, the
// range fetch and the extent list all live in the recycled record.
func TestReadWalkZeroAllocs(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	r := newFsRig(t, 2048)
	ino := bigFile(t, r)
	bytesRead := 0
	done := func(res *ReadResult, err error) {
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		for _, e := range res.Extents {
			bytesRead += e.Len
		}
		res.Done(r.fs)
	}
	for _, off := range []uint64{0, 4 * BlockSize, 100 * BlockSize, (NDirect + PtrsPerBlock - 3) * BlockSize, 1000*BlockSize + 17} {
		read := func() {
			r.fs.Read(ino, off, 32<<10, done)
			r.run(t)
		}
		read()
		bytesRead = 0
		if avg := testing.AllocsPerRun(100, read); avg != 0 {
			t.Errorf("32 KB READ at %d allocates %.1f objects, want 0", off, avg)
		}
		if bytesRead != 101*(32<<10) {
			t.Fatalf("READ at %d delivered %d bytes over 101 calls", off, bytesRead)
		}
	}
}

// TestWriteWalkAllocBudget: a 32 KB overwrite of allocated, resident blocks
// costs nothing but the caller's own filler; Map of the same range (the
// journal's view) is free too.
func TestWriteWalkAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	r := newFsRig(t, 2048)
	ino := bigFile(t, r)
	filler := func(b *buffercache.Block, blockOff, count, srcOff int) { r.cache.Page(b)[blockOff] = byte(srcOff) }
	wrote := func(err error) {
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	mapped := func(lbns []int64, err error) {
		if err != nil || len(lbns) != 8 {
			t.Fatalf("Map: %d blocks, %v", len(lbns), err)
		}
	}
	for _, off := range []uint64{0, 6 * BlockSize, (NDirect + PtrsPerBlock - 3) * BlockSize} {
		write := func() {
			r.fs.Write(ino, off, 32<<10, filler, wrote)
			r.fs.Map(ino, off, 32<<10, mapped)
			r.run(t)
		}
		write()
		if avg := testing.AllocsPerRun(100, write); avg != 0 {
			t.Errorf("32 KB WRITE+Map at %d allocates %.1f objects, want 0", off, avg)
		}
	}
	// Getattr rides the same record.
	attr := func(a Attr, err error) {
		if err != nil || a.Mode != ModeFile {
			t.Fatalf("Getattr: %+v, %v", a, err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { r.fs.Getattr(ino, attr) }); avg != 0 {
		t.Errorf("GETATTR allocates %.1f objects, want 0", avg)
	}
}

// TestWalkRecordPoisonedInDebugMode: under netbuf debug mode a retired
// record is abandoned, not recycled, and any later use of it panics — a late
// callback, or a second ReadResult.Done.
func TestWalkRecordPoisonedInDebugMode(t *testing.T) {
	was := netbuf.DebugEnabled()
	netbuf.SetDebug(true)
	defer netbuf.SetDebug(was)
	r := newFsRig(t, 256)
	ino := r.create(t, "f")
	r.write(t, ino, 0, make([]byte, BlockSize))

	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			if p := recover(); p == nil || !strings.Contains(p.(string), want) {
				t.Errorf("%s: recovered %v, want a panic mentioning %q", what, p, want)
			}
		}()
		fn()
	}
	var res *ReadResult
	r.fs.Read(ino, 0, BlockSize, func(rr *ReadResult, err error) {
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		res = rr
	})
	r.run(t)
	w := res.w
	res.Done(r.fs)
	if len(r.fs.walks) != 0 {
		t.Fatalf("debug mode recycled %d walk records", len(r.fs.walks))
	}
	mustPanic("late callback", "used after retire", func() { w.onBlock(nil, nil) })
	mustPanic("second Done", "retired twice", func() { res.Done(r.fs) })

	// CREATE, READDIR and REMOVE run on the same record, which retires
	// where their completions are called; a READDIR's retires after its
	// callback, and retiring it again panics.
	r.fs.Create(RootIno, []byte("g"), ModeFile, func(uint32, error) {})
	lw := r.fs.walk()
	lw.doneList = func(l *Listing, err error) {
		if err != nil || l.Len() != 2 {
			t.Fatalf("Readdir: %v", err)
		}
	}
	lw.scanDir(RootIno, visitList, (*walk).ended)
	r.fs.Remove(RootIno, []byte("g"), func(err error) {
		if err != nil {
			t.Fatalf("Remove: %v", err)
		}
	})
	r.run(t)
	if len(r.fs.walks) != 0 {
		t.Fatalf("debug mode recycled %d walk records", len(r.fs.walks))
	}
	mustPanic("listing's record retired again", "retired twice", lw.retire)
}
