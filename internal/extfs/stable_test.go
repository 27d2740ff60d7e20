package extfs

import (
	"bytes"
	"testing"

	"ncache/internal/netbuf"
)

// gatedLower is a diskLower whose writes starting at a gated LBN stay in
// flight until the test opens them.
type gatedLower struct {
	diskLower
	gate map[int64]bool
	held []func()
}

func (l *gatedLower) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	if l.gate[lbn] {
		l.held = append(l.held, func() { l.diskLower.WriteAt(lbn, data, meta, done) })
		return
	}
	l.diskLower.WriteAt(lbn, data, meta, done)
}

// open lands every held write.
func (l *gatedLower) open() {
	held := l.held
	l.held = nil
	for _, w := range held {
		w()
	}
}

// lbnOf maps block fbn of a file to its device block.
func (r *fsRig) lbnOf(t *testing.T, ino uint32, fbn int64) int64 {
	t.Helper()
	var lbn int64
	r.fs.Map(ino, uint64(fbn)*BlockSize, BlockSize, func(lbns []int64, err error) {
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
		lbn = lbns[0]
	})
	r.run(t)
	return lbn
}

// writeStable runs WriteStable and reports whether it completed; check runs
// in its completion, at the ack instant.
func (r *fsRig) writeStable(t *testing.T, ino uint32, data []byte, check func()) bool {
	t.Helper()
	done := false
	r.fs.WriteStable(ino, 0, len(data), copyFiller(r.cache, data), func(err error) {
		if err != nil {
			t.Fatalf("WriteStable: %v", err)
		}
		check()
		done = true
	})
	r.run(t)
	return done
}

// A stable WRITE waits for its own blocks only: with file a's batch held in
// flight, an overwrite of file b is acked with b's block on the platter,
// while a stable overwrite of a waits for a's batch and then writes again.
func TestWriteStableWaitsForNoOtherFile(t *testing.T) {
	r := newFsRig(t, 256)
	a, b := r.create(t, "a"), r.create(t, "b")
	r.write(t, a, 0, bytes.Repeat([]byte{1}, BlockSize))
	r.write(t, b, 0, bytes.Repeat([]byte{2}, BlockSize))
	lower := &gatedLower{diskLower: diskLower{dev: r.disk, pool: r.node.TxPool}, gate: map[int64]bool{}}
	r.remountOver(t, 256, lower)
	lbnA, lbnB := r.lbnOf(t, a, 0), r.lbnOf(t, b, 0)

	lower.gate[lbnA] = true
	r.write(t, a, 0, bytes.Repeat([]byte{3}, BlockSize))
	synced := false
	r.fs.Sync(func(err error) { synced = err == nil })
	r.run(t)
	if synced || len(lower.held) != 1 {
		t.Fatalf("a's batch is not in flight (synced %v, held %d)", synced, len(lower.held))
	}

	newB := bytes.Repeat([]byte{4}, BlockSize)
	if !r.writeStable(t, b, newB, func() {
		if !bytes.Equal(r.disk.PeekBlock(lbnB), newB) {
			t.Error("a stable WRITE of b was acked before b's block reached the platter")
		}
	}) {
		t.Fatal("a stable WRITE of b waited for a's batch")
	}

	newA := bytes.Repeat([]byte{5}, BlockSize)
	ackedA := false
	r.fs.WriteStable(a, 0, BlockSize, copyFiller(r.cache, newA), func(err error) {
		if err != nil {
			t.Fatalf("WriteStable: %v", err)
		}
		if !bytes.Equal(r.disk.PeekBlock(lbnA), newA) {
			t.Error("a stable WRITE of a was acked before its rewrite reached the platter")
		}
		ackedA = true
	})
	r.run(t)
	if ackedA {
		t.Fatal("a stable WRITE of a did not wait for a's batch in flight")
	}
	lower.gate[lbnA] = false
	lower.open()
	r.run(t)
	if !ackedA || !synced {
		t.Fatalf("after a's batch landed: stable WRITE acked %v, Sync reported %v", ackedA, synced)
	}
}

// A stable WRITE that grows a file and allocates its blocks is acked with
// the data and the inode that maps it on the platter.
func TestWriteStableLandsDataAndInode(t *testing.T) {
	r := newFsRig(t, 256)
	ino := r.create(t, "grown")
	data := bytes.Repeat([]byte{0x6B}, 2*BlockSize)
	blk, off := r.fs.inodeLoc(ino)
	if !r.writeStable(t, ino, data, func() {
		in := DecodeInode(r.disk.PeekBlock(blk)[off : off+InodeSize])
		if in.Size != uint64(len(data)) || in.Direct[0] == 0 || in.Direct[1] == 0 {
			t.Fatalf("inode on the platter at the ack: %+v, want size %d and two blocks", in, len(data))
		}
		for i, lbn := range in.Direct[:2] {
			if !bytes.Equal(r.disk.PeekBlock(int64(lbn)), data[i*BlockSize:(i+1)*BlockSize]) {
				t.Errorf("block %d of the file is not on the platter at the ack", i)
			}
		}
	}) {
		t.Fatal("stable WRITE did not complete")
	}
}
