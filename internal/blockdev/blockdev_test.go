package blockdev

import (
	"bytes"
	"errors"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/sim"
)

func newDisk(eng *sim.Engine, blocks int64) *MemDisk {
	return NewMemDisk(eng, "d0", Geometry{BlockSize: 512, NumBlocks: blocks}, Model{
		PerRequest:  sim.Millisecond,
		BytesPerSec: 37_000_000,
	})
}

func TestMemDiskWriteReadRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 1000)
	data := bytes.Repeat([]byte("AB"), 512) // 2 blocks
	wrote := false
	d.WriteBlocks(10, [][]byte{data}, func(err error) {
		if err != nil {
			t.Errorf("Write: %v", err)
		}
		wrote = true
		// Read back into two buffers dirtied by an earlier owner.
		got := bytes.Repeat([]byte{0xEE}, 1024)
		d.ReadBlocks(10, [][]byte{got[:512], got[512:]}, func(err error) {
			if err != nil {
				t.Errorf("Read: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Error("read-back mismatch")
			}
		})
	})
	eng.Run()
	if !wrote {
		t.Fatal("write never completed")
	}
	if d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("ops = %d/%d", d.Reads, d.Writes)
	}
}

func TestMemDiskSynthesizedContent(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 1000)
	d.Synthesize = func(lbn int64, dst []byte) {
		for i := range dst {
			dst[i] = byte(lbn)
		}
	}
	got := make([]byte, 512)
	d.ReadBlocks(7, [][]byte{got}, func(err error) {
		if err != nil {
			t.Errorf("Read: %v", err)
		}
		if got[0] != 7 || got[511] != 7 {
			t.Error("synthesized content wrong")
		}
	})
	eng.Run()
	// Written blocks override synthesis.
	d.WriteBlocks(7, [][]byte{make([]byte, 512)}, func(err error) {
		d.ReadBlocks(7, [][]byte{got}, func(err error) {
			if got[0] != 0 {
				t.Error("written block did not override synthesis")
			}
		})
	})
	eng.Run()
}

func TestMemDiskServiceTime(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 1_000_000)
	var doneAt sim.Time
	d.ReadBlocks(0, [][]byte{make([]byte, 72*512)}, func(error) { doneAt = eng.Now() }) // 36864 bytes
	eng.Run()
	want := sim.Time(sim.Millisecond) + sim.Time(int64(72*512)*int64(sim.Second)/37_000_000)
	if doneAt != want {
		t.Fatalf("service time = %v, want %v", doneAt, want)
	}
}

func TestMemDiskSerializesRequests(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 1000)
	var finish []sim.Time
	// Non-sequential requests: each pays the positioning overhead.
	for _, lbn := range []int64{0, 100, 200} {
		d.ReadBlocks(lbn, [][]byte{make([]byte, 512)}, func(error) {
			finish = append(finish, eng.Now())
		})
	}
	eng.Run()
	if len(finish) != 3 {
		t.Fatalf("completions = %d", len(finish))
	}
	per := sim.Duration(sim.Millisecond) + sim.Duration(int64(512)*int64(sim.Second)/37_000_000)
	if finish[2].Sub(finish[1]) != per || finish[1].Sub(finish[0]) != per {
		t.Fatalf("requests not serialized: %v", finish)
	}
}

func TestMemDiskSequentialSkipsSeek(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 1000)
	var finish []sim.Time
	// Block 0, then 1, then 2: streaming — only the first pays the seek.
	for i := int64(0); i < 3; i++ {
		d.ReadBlocks(i, [][]byte{make([]byte, 512)}, func(error) {
			finish = append(finish, eng.Now())
		})
	}
	eng.Run()
	media := sim.Duration(int64(512) * int64(sim.Second) / 37_000_000)
	if finish[1].Sub(finish[0]) != media || finish[2].Sub(finish[1]) != media {
		t.Fatalf("sequential reads charged seek: %v", finish)
	}
	if finish[0] != sim.Time(sim.Millisecond+media) {
		t.Fatalf("first read skipped the seek: %v", finish[0])
	}
}

func TestMemDiskBoundsAndAlignment(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 10)
	d.ReadBlocks(9, [][]byte{make([]byte, 1024)}, func(err error) {
		if !errors.Is(err, ErrOutOfRange) {
			t.Errorf("out-of-range read err = %v", err)
		}
	})
	d.WriteBlocks(0, [][]byte{make([]byte, 100)}, func(err error) {
		if !errors.Is(err, ErrBadLength) {
			t.Errorf("misaligned write err = %v", err)
		}
	})
	d.ReadBlocks(0, [][]byte{make([]byte, 512), make([]byte, 100)}, func(err error) {
		if !errors.Is(err, ErrBadLength) {
			t.Errorf("misaligned read buffer err = %v", err)
		}
	})
	eng.Run()
}

// TestMemDiskSynthesizesOverZeros: a never-written block read into a dirtied
// buffer is the synthesized content over zeros — nothing of the buffer's
// previous owner survives, with or without a Synthesize function.
func TestMemDiskSynthesizesOverZeros(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 100)
	read := func() []byte {
		buf := bytes.Repeat([]byte{0xEE}, 512)
		d.ReadBlocks(3, [][]byte{buf}, func(err error) {
			if err != nil {
				t.Errorf("Read: %v", err)
			}
		})
		eng.Run()
		return buf
	}
	if got := read(); !bytes.Equal(got, make([]byte, 512)) {
		t.Error("unwritten block without Synthesize is not zero-filled")
	}
	d.Synthesize = func(lbn int64, dst []byte) { dst[0] = byte(lbn) } // sparse: leaves the rest alone
	want := make([]byte, 512)
	want[0] = 3
	if got := read(); !bytes.Equal(got, want) {
		t.Error("synthesized block kept bytes of the buffer's previous owner")
	}
}

// TestMemDiskOverwritesInPlace: the image grows on a block's first write
// only; an overwrite reuses the stored block and the caller's buffer is
// never retained.
func TestMemDiskOverwritesInPlace(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 100)
	src := bytes.Repeat([]byte{1}, 1024)
	write := func() {
		d.WriteBlocks(4, [][]byte{src}, func(err error) {
			if err != nil {
				t.Errorf("Write: %v", err)
			}
		})
		eng.Run()
	}
	write()
	first := &d.blocks[4][0]
	for i := range src {
		src[i] = 2
	}
	if d.PeekBlock(4)[0] != 1 {
		t.Fatal("disk retained the caller's write buffer")
	}
	write()
	if &d.blocks[4][0] != first || len(d.blocks) != 2 {
		t.Fatal("overwrite grew the image")
	}
	if d.PeekBlock(5)[511] != 2 {
		t.Fatal("overwrite did not land")
	}
	d.PokeBlock(5, []byte{9}) // short poke: the rest of the block is zero
	if got := d.PeekBlock(5); got[0] != 9 || got[1] != 0 {
		t.Fatal("short PokeBlock left stale bytes")
	}
}

// TestMemDiskReadWriteAllocFree: after priming, a read into caller-owned
// buffers and an overwrite allocate nothing on the host.
func TestMemDiskReadWriteAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng := sim.NewEngine()
	d := newDisk(eng, 1000)
	d.Synthesize = func(lbn int64, dst []byte) { dst[0] = byte(lbn) }
	buf := make([]byte, 8*512)
	vec := [][]byte{buf[:1024], buf[1024:]}
	done := func(err error) {
		if err != nil {
			t.Errorf("I/O: %v", err)
		}
	}
	step := func() {
		d.WriteBlocks(16, vec, done)
		d.ReadBlocks(16, vec, done) // stored blocks
		d.ReadBlocks(64, vec, done) // synthesized blocks
		eng.Run()
	}
	step()
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("steady-state disk I/O allocates %.1f objects per write+2 reads, want 0", avg)
	}
}

// TestMemDiskFirstWriteAllocBudget: the image grows on a block's first
// write. Through WriteBlocks, the data path, 64 fresh blocks on a fresh
// image slab cost at most the 7 slabs that double up to them (1, 2, ..., 32
// blocks, then 64); through PokeBlock, the set-up hook, one object each.
func TestMemDiskFirstWriteAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	const fresh, runs = 64, 4
	eng := sim.NewEngine()
	d := newDisk(eng, 1024)
	// Size the block index for every block written below, so that only the
	// blocks themselves are counted, and prime the transfer record with an
	// overwrite.
	d.blocks = make(map[int64][]byte, 1024)
	buf := make([]byte, fresh*512)
	done := func(err error) {
		if err != nil {
			t.Errorf("I/O: %v", err)
		}
	}
	d.PokeBlock(1023, buf[:512])
	d.WriteBlocks(1023, [][]byte{buf[:512]}, done)
	eng.Run()

	vec := [][]byte{buf}
	next := int64(0)
	perWrite := testing.AllocsPerRun(runs, func() {
		d.image = netbuf.Slab[byte]{} // a fresh disk's slab: the doublings start over
		d.WriteBlocks(next, vec, done)
		eng.Run()
		next += fresh
	})
	if perWrite > 7 {
		t.Errorf("%d fresh blocks through WriteBlocks cost %.1f objects, want <= 7 (the slab doublings)", fresh, perWrite)
	}
	perPoke := testing.AllocsPerRun(runs, func() {
		for i := range int64(fresh) {
			d.PokeBlock(next+i, buf[:512])
		}
		next += fresh
	})
	if perPoke != fresh {
		t.Errorf("%d fresh blocks through PokeBlock cost %.1f objects, want one each", fresh, perPoke)
	}
	if int(next) != 2*(runs+1)*fresh {
		t.Fatalf("wrote up to block %d, want %d", next, 2*(runs+1)*fresh)
	}
}
