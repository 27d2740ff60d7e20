package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/sim"
)

// volWrite/volRead drive a Volume synchronously under the test engine.
func volWrite(t *testing.T, eng *sim.Engine, v Volume, lbn int64, p []byte) {
	t.Helper()
	done := false
	v.WriteAt(lbn, netbuf.ChainFromBytes(p, netbuf.DefaultBufSize), false, func(err error) {
		if err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		done = true
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
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
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return flat
}

// TestShardedRoutesBySplit: a request straddling a placement boundary is cut
// there, each piece lands on the member the TargetMap names for it, and the
// read reassembles them in LBN order.
func TestShardedRoutesBySplit(t *testing.T) {
	eng := sim.NewEngine()
	// Every member exports the global geometry (untouched pages of the
	// backing slices cost nothing); placement is per DefaultRangeBlocks range.
	// cut is the first range boundary where the target changes.
	const blocks = 80 * DefaultRangeBlocks
	inis := []*fakeIni{newFakeIni(eng, blocks, 10*sim.Microsecond), newFakeIni(eng, blocks, 10*sim.Microsecond)}
	tm := NewTargetMap(2)
	cut := int64(DefaultRangeBlocks)
	for tm.TargetOf(cut) == tm.TargetOf(cut-1) {
		cut += DefaultRangeBlocks
	}
	sh := NewSharded([]Volume{NewSingleArm("a", inis[0]), NewSingleArm("b", inis[1])}, tm)
	data := make([]byte, 8*512)
	rand.New(rand.NewSource(4)).Read(data)
	volWrite(t, eng, sh, cut-4, data) // 4 blocks on one member, 4 on the other
	if got := volRead(t, eng, sh, cut-4, 8); !bytes.Equal(got, data) {
		t.Fatal("sharded read-back mismatch")
	}
	lo, hi := inis[tm.TargetOf(cut-4)], inis[tm.TargetOf(cut)]
	if lo.writes != 1 || hi.writes != 1 {
		t.Fatalf("split writes = %d/%d, want 1/1", lo.writes, hi.writes)
	}
	if !bytes.Equal(lo.dat[(cut-4)*512:cut*512], data[:4*512]) {
		t.Fatal("the member below the boundary holds the wrong extent")
	}
	if !bytes.Equal(hi.dat[cut*512:(cut+4)*512], data[4*512:]) {
		t.Fatal("the member above the boundary holds the wrong extent")
	}
}

// TestTargetMapSplit: extents split exactly at range boundaries, adjacent
// same-target pieces merge, and every block lands on the target TargetOf
// names for it.
func TestTargetMapSplit(t *testing.T) {
	tm := NewTargetMap(4)
	// Ranges below the ring's 64 virtual nodes all land on member 0; the
	// run starts below and crosses into the ranges that spread.
	const start, blocks = int64(60*DefaultRangeBlocks + 3), 16 * DefaultRangeBlocks
	exts := tm.Split(start, blocks)
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
		if i > 0 && exts[i-1].Target == e.Target {
			t.Fatalf("adjacent extents %d and %d share target %d (not merged)",
				i-1, i, e.Target)
		}
		next += int64(e.Blocks)
		covered += int64(e.Blocks)
	}
	if covered != blocks {
		t.Fatalf("extents cover %d blocks, want %d", covered, blocks)
	}
	if tm.TargetOf(5) < 0 || tm.TargetOf(5) >= 4 {
		t.Fatalf("TargetOf out of range")
	}
	one := NewTargetMap(1)
	if got := one.Split(0, 100); len(got) != 1 || got[0].Target != 0 || got[0].Blocks != 100 {
		t.Fatalf("single-target split: %+v", got)
	}
}
