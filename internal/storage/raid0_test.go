package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ncache/internal/blockdev"
	"ncache/internal/sim"
)

func newArray(t *testing.T, eng *sim.Engine, ndisks int, stripeUnit int) *RAID0 {
	t.Helper()
	disks := make([]*blockdev.MemDisk, ndisks)
	for i := range disks {
		disks[i] = blockdev.NewMemDisk(eng, "d", blockdev.Geometry{BlockSize: 512, NumBlocks: 1000}, blockdev.IDE2000())
	}
	r, err := NewRAID0(disks, stripeUnit)
	if err != nil {
		t.Fatalf("NewRAID0: %v", err)
	}
	return r
}

func TestRAID0RoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	r := newArray(t, eng, 4, 8)
	if r.Geometry().NumBlocks != 4000 {
		t.Fatalf("NumBlocks = %d", r.Geometry().NumBlocks)
	}
	data := make([]byte, 512*50) // spans many stripe units
	rand.New(rand.NewSource(5)).Read(data)
	r.WriteBlocks(13, [][]byte{data}, func(err error) {
		if err != nil {
			t.Errorf("Write: %v", err)
		}
		got := make([]byte, len(data))
		r.ReadBlocks(13, [][]byte{got}, func(err error) {
			if err != nil {
				t.Errorf("Read: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Error("raid0 read-back mismatch")
			}
		})
	})
	eng.Run()
}

func TestRAID0DistributesAcrossDisks(t *testing.T) {
	eng := sim.NewEngine()
	r := newArray(t, eng, 4, 8)
	// 64 blocks starting at 0 covers stripes 0..7: 16 blocks per disk,
	// coalesced into exactly one member request each.
	r.ReadBlocks(0, [][]byte{make([]byte, 64*512)}, func(err error) {
		if err != nil {
			t.Errorf("Read: %v", err)
		}
	})
	eng.Run()
	for i, d := range r.Disks() {
		if d.Reads != 1 {
			t.Fatalf("disk %d reads = %d, want 1 (coalesced)", i, d.Reads)
		}
		if d.BytesRead != 16*512 {
			t.Fatalf("disk %d bytes = %d, want %d", i, d.BytesRead, 16*512)
		}
	}
}

func TestRAID0ParallelismBeatsSingleDisk(t *testing.T) {
	eng := sim.NewEngine()
	single := blockdev.NewMemDisk(eng, "s", blockdev.Geometry{BlockSize: 512, NumBlocks: 4000}, blockdev.IDE2000())
	array := newArray(t, eng, 4, 8)

	var tSingle, tArray sim.Duration
	start := eng.Now()
	n := 512 // 256 KB
	single.ReadBlocks(0, [][]byte{make([]byte, n*512)}, func(error) { tSingle = eng.Now().Sub(start) })
	array.ReadBlocks(0, [][]byte{make([]byte, n*512)}, func(error) { tArray = eng.Now().Sub(start) })
	eng.Run()
	if tArray >= tSingle {
		t.Fatalf("raid0 (%v) not faster than single disk (%v)", tArray, tSingle)
	}
}

func TestRAID0ValidatesConstruction(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewRAID0(nil, 8); err == nil {
		t.Fatal("empty raid accepted")
	}
	d1 := blockdev.NewMemDisk(eng, "a", blockdev.Geometry{BlockSize: 512, NumBlocks: 10}, blockdev.IDE2000())
	d2 := blockdev.NewMemDisk(eng, "b", blockdev.Geometry{BlockSize: 4096, NumBlocks: 10}, blockdev.IDE2000())
	if _, err := NewRAID0([]*blockdev.MemDisk{d1, d2}, 8); err == nil {
		t.Fatal("mismatched members accepted")
	}
	if _, err := NewRAID0([]*blockdev.MemDisk{d1}, 0); err == nil {
		t.Fatal("zero stripe unit accepted")
	}
}

func TestRAID0PropertyRoundTrip(t *testing.T) {
	f := func(seed uint64, lbn16 uint16, count8, unit8 uint8) bool {
		eng := sim.NewEngine()
		unit := int(unit8)%16 + 1
		disks := make([]*blockdev.MemDisk, 3)
		for i := range disks {
			disks[i] = blockdev.NewMemDisk(eng, "d", blockdev.Geometry{BlockSize: 64, NumBlocks: 512}, blockdev.Model{})
		}
		r, err := NewRAID0(disks, unit)
		if err != nil {
			return false
		}
		lbn := int64(lbn16) % 1000
		count := int(count8)%32 + 1
		if lbn+int64(count) > r.Geometry().NumBlocks {
			lbn = 0
		}
		data := make([]byte, count*64)
		rand.New(rand.NewSource(int64(seed))).Read(data)
		ok := false
		r.WriteBlocks(lbn, [][]byte{data}, func(err error) {
			if err != nil {
				return
			}
			got := make([]byte, len(data))
			r.ReadBlocks(lbn, [][]byte{got}, func(err error) {
				ok = err == nil && bytes.Equal(got, data)
			})
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
