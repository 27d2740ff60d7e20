package storage

import (
	"bytes"
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

func TestShardedRoutesBySplit(t *testing.T) {
	eng := sim.NewEngine()
	a := newFakeIni(eng, 256, 10*sim.Microsecond)
	b := newFakeIni(eng, 256, 10*sim.Microsecond)
	// Every member exports the global geometry; placement cuts at LBN 100.
	sh := NewSharded(
		[]Volume{NewSingleArm("a", a), NewSingleArm("b", b)},
		func(lbn int64, blocks int) []Extent {
			var out []Extent
			if lbn < 100 {
				n := int(min64(100-lbn, int64(blocks)))
				out = append(out, Extent{Member: 0, LBN: lbn, Blocks: n})
				lbn += int64(n)
				blocks -= n
			}
			if blocks > 0 {
				out = append(out, Extent{Member: 1, LBN: lbn, Blocks: blocks})
			}
			return out
		})
	data := make([]byte, 8*512)
	sim.NewRNG(4).Fill(data)
	volWrite(t, eng, sh, 96, data) // 4 blocks on member 0, 4 on member 1
	if got := volRead(t, eng, sh, 96, 8); !bytes.Equal(got, data) {
		t.Fatal("sharded read-back mismatch")
	}
	if a.writes != 1 || b.writes != 1 {
		t.Fatalf("split writes = %d/%d, want 1/1", a.writes, b.writes)
	}
	if !bytes.Equal(a.dat[96*512:100*512], data[:4*512]) {
		t.Fatal("member 0 holds wrong extent")
	}
	if !bytes.Equal(b.dat[100*512:104*512], data[4*512:]) {
		t.Fatal("member 1 holds wrong extent")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
