package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// volWrite/volRead drive a Volume synchronously under the test engine;
// volWrite copies p onto pool.
func volWrite(t *testing.T, eng *sim.Engine, pool *netbuf.Pool, v Volume, lbn int64, p []byte) {
	t.Helper()
	done := false
	v.WriteAt(lbn, pool.GetChain(p), false, func(err error) {
		if err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("write did not complete")
	}
}

func volRead(t *testing.T, eng *sim.Engine, v Volume, lbn int64, blocks int) []byte {
	t.Helper()
	var flat []byte
	v.ReadAt(lbn, blocks, false, func(data *netbuf.Chain, err error) {
		if err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		flat = data.Flatten()
		data.Release()
	})
	eng.Run()
	return flat
}

// TestShardedRoutesBySplit: a request straddling a placement boundary is cut
// there, each piece lands on the member the TargetMap names for it, and the
// read reassembles them in LBN order.
func TestShardedRoutesBySplit(t *testing.T) {
	eng := sim.NewEngine()
	// Every member exports the global geometry (untouched pages of the
	// backing slices cost nothing); placement is per DefaultRangeBlocks range,
	// range 0 on member 0 and range 1 on member 1.
	const blocks = 2 * DefaultRangeBlocks
	node := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	inis := []*fakeIni{newFakeIni(eng, node.TxPool, blocks, 10*sim.Microsecond), newFakeIni(eng, node.TxPool, blocks, 10*sim.Microsecond)}
	tm := NewTargetMap(2)
	const cut = int64(DefaultRangeBlocks)
	members := make([]Volume, len(inis))
	for i, ini := range inis {
		members[i] = NewMirror(node, []string{string(rune('a' + i))}, []Initiator{ini}, PolicyPrimaryFirst)
	}
	sh := NewSharded(members, tm)
	data := make([]byte, 8*512)
	rand.New(rand.NewSource(4)).Read(data)
	volWrite(t, eng, node.TxPool, sh, cut-4, data) // 4 blocks on one member, 4 on the other
	if got := volRead(t, eng, sh, cut-4, 8); !bytes.Equal(got, data) {
		t.Fatal("sharded read-back mismatch")
	}
	lo, hi := inis[0], inis[1]
	if lo.writes != 1 || hi.writes != 1 {
		t.Fatalf("split writes = %d/%d, want 1/1", lo.writes, hi.writes)
	}
	st := sh.Stats()
	if len(st) != 2 || st[0].Writes != 1 || st[1].Writes != 1 || st[0].Reads != 1 || st[1].Reads != 1 {
		t.Fatalf("per-target stats %+v, want one read and one write on each", st)
	}
	if !bytes.Equal(lo.dat[(cut-4)*512:cut*512], data[:4*512]) {
		t.Fatal("the member below the boundary holds the wrong extent")
	}
	if !bytes.Equal(hi.dat[cut*512:(cut+4)*512], data[4*512:]) {
		t.Fatal("the member above the boundary holds the wrong extent")
	}
}

// TestTargetMapSplit: extents split exactly at range boundaries, every block
// lands on the target TargetOf names for it, and consecutive ranges — from
// range 0 on — go round the targets in turn.
func TestTargetMapSplit(t *testing.T) {
	const targets = 4
	tm := NewTargetMap(targets)
	const start, blocks = int64(3), 16 * DefaultRangeBlocks
	exts := tm.Split(start, blocks)
	if len(exts) != 17 {
		t.Fatalf("%d blocks from lbn %d split into %d extents, want one per range touched (17)", blocks, start, len(exts))
	}
	covered := int64(0)
	next := start
	for i, e := range exts {
		if e.LBN != next {
			t.Fatalf("extent %d starts at %d, want %d", i, e.LBN, next)
		}
		if e.Blocks <= 0 {
			t.Fatalf("extent %d empty", i)
		}
		for b := int64(0); b < int64(e.Blocks); b++ {
			if got := tm.TargetOf(e.LBN + b); got != e.Target {
				t.Fatalf("lbn %d: extent says target %d, TargetOf says %d",
					e.LBN+b, e.Target, got)
			}
		}
		if e.Target != i%targets {
			t.Fatalf("extent %d (range %d) on target %d, want %d: consecutive ranges must alternate",
				i, e.LBN/DefaultRangeBlocks, e.Target, i%targets)
		}
		next += int64(e.Blocks)
		covered += int64(e.Blocks)
	}
	if covered != blocks {
		t.Fatalf("extents cover %d blocks, want %d", covered, blocks)
	}
	one := NewTargetMap(1)
	if got := one.Split(0, 100); len(got) != 1 || got[0].Target != 0 || got[0].Blocks != 100 {
		t.Fatalf("single-target split: %+v", got)
	}
}
