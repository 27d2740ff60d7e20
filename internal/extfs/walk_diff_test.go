package extfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ncache/internal/buffercache"
)

// The differential tests drive two identical rigs through the same seeded
// sequence — one with the record-driven walk, one with the closure-per-block
// oracle (walk_oracle_test.go) — and require, after every step, the same
// answers and the same footprint: cache statistics, LRU order and engine
// event count; and at the end the same on-disk image.

// footprint is everything a walk leaves behind besides its answer.
type footprint struct {
	Stats     [3]uint64 // hits, misses, evictions
	LRU       []int64
	Processed uint64
}

func (r *fsRig) footprint() footprint {
	s := r.cache.Stats
	return footprint{[3]uint64{s.Hits, s.Misses, s.Evictions}, r.cache.ResidentLBNs(), r.eng.Processed()}
}

// remount syncs the rig and replaces its cache with a cold one of the given
// capacity.
func (r *fsRig) remount(t *testing.T, capacity int) {
	t.Helper()
	r.remountOver(t, capacity, &diskLower{dev: r.disk, pool: r.node.TxPool})
}

// remountOver is remount with the new cache over lower.
func (r *fsRig) remountOver(t *testing.T, capacity int, lower buffercache.Lower) {
	t.Helper()
	r.fs.Sync(func(err error) {
		if err != nil {
			t.Fatalf("Sync: %v", err)
		}
	})
	r.run(t)
	r.cache = buffercache.New(r.node, lower, capacity)
	Mount(r.node, r.cache, func(fs *FS, err error) {
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		// The allocator hints live in the FS, not on disk: carry them over
		// so both rigs keep allocating from the same place.
		fs.blockHint, fs.inodeHint = r.fs.blockHint, r.fs.inodeHint
		r.fs = fs
	})
	r.run(t)
}

func (r *fsRig) inode(t *testing.T, ino uint32) Inode {
	t.Helper()
	var out Inode
	w := r.fs.walk()
	w.doneErr = func(err error) {
		if err != nil {
			t.Fatalf("load inode %d: %v", ino, err)
		}
	}
	w.loadInode(ino, func(w *walk) {
		out = w.in
		w.finish(nil)
	})
	r.run(t)
	return out
}

func (r *fsRig) putInode(t *testing.T, ino uint32, in Inode) {
	t.Helper()
	w := r.fs.walk()
	w.ino, w.in = ino, in
	w.doneErr = func(err error) {
		if err != nil {
			t.Fatalf("store inode %d: %v", ino, err)
		}
	}
	w.storeInode((*walk).ended)
	r.run(t)
}

// mapping is the answer of one range resolution.
type mapping struct {
	LBNs    []int64
	Freshs  []bool
	Changed bool
	Err     string
	In      Inode
}

// resolveNew resolves a range with the walk record; resolveOracle with the
// closure chain. Both start from the rig's current copy of the inode and
// persist it when it changed, as Write does.
func (r *fsRig) resolveNew(t *testing.T, ino uint32, fbn int64, count int, alloc bool) mapping {
	var m mapping
	w := r.fs.walk()
	w.ino, w.in = ino, r.inode(t, ino)
	w.doneErr = func(err error) { m.Err = fmt.Sprint(err) }
	w.resolve(fbn, count, alloc, func(w *walk) {
		m = mapping{append([]int64(nil), w.lbns...), append([]bool(nil), w.freshs...), w.changed, fmt.Sprint(nil), w.in}
		w.retire()
	})
	r.run(t)
	if m.Changed {
		r.putInode(t, ino, m.In)
	}
	return m
}

func (r *fsRig) resolveOracle(t *testing.T, ino uint32, fbn int64, count int, alloc bool) mapping {
	var m mapping
	in := r.inode(t, ino)
	r.fs.oracleBmapRange(&in, fbn, count, alloc, func(lbns []int64, freshs []bool, changed bool, err error) {
		m = mapping{lbns, freshs, changed, fmt.Sprint(err), in}
	})
	r.run(t)
	if m.Changed {
		r.putInode(t, ino, m.In)
	}
	return m
}

// interestingRange draws a range of file blocks around one of the block
// map's boundaries: the direct/indirect edge, the indirect/double-indirect
// edge, an edge between two inner pointer blocks, or anywhere.
func interestingRange(rng *rand.Rand) (fbn int64, count int) {
	edges := []int64{0, NDirect, NDirect + PtrsPerBlock, NDirect + 2*PtrsPerBlock, NDirect + 5*PtrsPerBlock, NDirect + PtrsPerBlock/2}
	fbn = edges[rng.Intn(len(edges))] + int64(rng.Intn(9)) - 4
	if rng.Intn(4) == 0 {
		fbn = int64(rng.Intn(NDirect + 6*PtrsPerBlock))
	}
	if fbn < 0 {
		fbn = 0
	}
	return fbn, 1 + rng.Intn(12)
}

func TestWalkMatchesOracle(t *testing.T) {
	caches := []struct {
		name     string
		capacity int
		cold     bool // a fresh cache before every step
	}{
		{"cold", 256, true},
		{"warm", 256, false},
		{"tiny", 3, false}, // evicts pointer blocks mid-walk
	}
	for _, cc := range caches {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cc.name, seed), func(t *testing.T) {
				a, b := newFsRig(t, 256), newFsRig(t, 256)
				ino := a.create(t, "f")
				if got := b.create(t, "f"); got != ino {
					t.Fatalf("rigs diverged at create: %d vs %d", ino, got)
				}
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 40; step++ {
					fbn, count := interestingRange(rng)
					alloc := rng.Intn(3) == 0
					if cc.cold || step == 0 {
						a.remount(t, cc.capacity)
						b.remount(t, cc.capacity)
					}
					got, want := a.resolveNew(t, ino, fbn, count, alloc), b.resolveOracle(t, ino, fbn, count, alloc)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d [%d,+%d) alloc=%v:\n walk   %+v\n oracle %+v", step, fbn, count, alloc, got, want)
					}
					if fa, fb := a.footprint(), b.footprint(); !reflect.DeepEqual(fa, fb) {
						t.Fatalf("step %d [%d,+%d) alloc=%v footprint:\n walk   %+v\n oracle %+v", step, fbn, count, alloc, fa, fb)
					}
				}
				// The comparison must have had something to compare.
				if f := a.footprint(); !cc.cold && (f.Stats[0] == 0 || f.Stats[1] == 0 || (cc.capacity < 16 && f.Stats[2] == 0)) {
					t.Fatalf("degenerate run: hits/misses/evictions %v", f.Stats)
				}
				compareDisks(t, a, b)
			})
		}
	}
}

// compareDisks syncs both rigs and requires identical device images.
func compareDisks(t *testing.T, a, b *fsRig) {
	t.Helper()
	a.remount(t, 16)
	b.remount(t, 16)
	for lbn := int64(0); lbn < a.disk.Geometry().NumBlocks; lbn++ {
		if !bytes.Equal(a.disk.PeekBlock(lbn), b.disk.PeekBlock(lbn)) {
			t.Fatalf("device block %d differs between walk and oracle", lbn)
		}
	}
}

// slotSeen is one slot a directory scan visited.
type slotSeen struct {
	Ino  uint32
	Name string
}

func TestScanMatchesOracle(t *testing.T) {
	for _, capacity := range []int{256, 2} {
		a, b := newFsRig(t, 256), newFsRig(t, 256)
		for i := 0; i < 150; i++ { // three directory blocks
			a.create(t, fmtName(i))
			b.create(t, fmtName(i))
		}
		for _, stopAt := range []string{"", fmtName(0), fmtName(70), fmtName(149), "absent"} {
			for _, mutate := range []bool{false, true} {
				a.remount(t, capacity)
				b.remount(t, capacity)
				var seenA, seenB []slotSeen
				var stoppedA, stoppedB bool
				w := a.fs.walk()
				w.in = a.inode(t, RootIno)
				w.scan(func(w *walk, slot []byte) (bool, bool) {
					d := oracleDecodeDirent(slot)
					seenA = append(seenA, slotSeen{d.Ino, d.Name})
					return d.Name == stopAt && stopAt != "", mutate
				}, func(w *walk) {
					stoppedA = w.stopped
					w.retire()
				})
				a.run(t)
				in := b.inode(t, RootIno)
				b.fs.oracleDirScan(&in, func(d Dirent, _ *buffercache.Block, _ int) (bool, bool) {
					seenB = append(seenB, slotSeen{d.Ino, d.Name})
					return d.Name == stopAt && stopAt != "", mutate
				}, func(stopped bool, err error) {
					if err != nil {
						t.Errorf("oracle scan: %v", err)
					}
					stoppedB = stopped
				})
				b.run(t)
				if stoppedA != stoppedB || !reflect.DeepEqual(seenA, seenB) {
					t.Fatalf("cap %d stop %q: walk visited %d slots (stopped %v), oracle %d (stopped %v)",
						capacity, stopAt, len(seenA), stoppedA, len(seenB), stoppedB)
				}
				if fa, fb := a.footprint(), b.footprint(); !reflect.DeepEqual(fa, fb) {
					t.Fatalf("cap %d stop %q mutate %v footprint:\n walk   %+v\n oracle %+v", capacity, stopAt, mutate, fa, fb)
				}
			}
		}
		compareDisks(t, a, b)
	}
}
