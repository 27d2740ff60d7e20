package blockdev

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/trace"
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

// TestMemDiskReadsOvertakeQueuedWrites: a read submitted behind queued
// writes dispatches as soon as the arm is free, ahead of them.
func TestMemDiskReadsOvertakeQueuedWrites(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 1000)
	var order []string
	for _, lbn := range []int64{0, 100, 200} {
		d.WriteBlocks(lbn, [][]byte{make([]byte, 512)}, func(error) { order = append(order, "write") })
	}
	d.ReadBlocks(300, [][]byte{make([]byte, 512)}, func(error) { order = append(order, "read") })
	eng.Run()
	if want := []string{"write", "read", "write", "write"}; !slices.Equal(order, want) {
		t.Fatalf("completion order %v, want %v: the read waits only for the write in service", order, want)
	}
}

// TestMemDiskReadWaitsForOverlappingWrite: a read of blocks a queued write
// covers does not overtake it, so it returns the write's bytes; nor does an
// expired write overtake an older read of its blocks.
func TestMemDiskReadWaitsForOverlappingWrite(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 1000)
	var order []string
	d.WriteBlocks(0, [][]byte{make([]byte, 512)}, func(error) { order = append(order, "write 0") })
	d.WriteBlocks(100, [][]byte{bytes.Repeat([]byte{0xB1}, 1024)}, func(error) { order = append(order, "write 100") })
	got := make([]byte, 512)
	d.ReadBlocks(101, [][]byte{got}, func(error) { order = append(order, "read 101") })
	eng.Run()
	if want := []string{"write 0", "write 100", "read 101"}; !slices.Equal(order, want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xB1}, 512)) {
		t.Fatal("the read did not return the bytes of the queued write to its block")
	}

	// The other way round: a write that expires behind a backlog of reads
	// still waits for the older read of its block, which returns the bytes
	// from before it.
	order = order[:0]
	for i := int64(0); i < 300; i++ {
		d.ReadBlocks(200+2*i, [][]byte{make([]byte, 512)}, func(error) {})
	}
	d.ReadBlocks(101, [][]byte{got}, func(error) { order = append(order, "read 101") })
	d.WriteBlocks(101, [][]byte{bytes.Repeat([]byte{0xC2}, 512)}, func(error) { order = append(order, "write 101") })
	eng.Run()
	if want := []string{"read 101", "write 101"}; !slices.Equal(order, want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xB1}, 512)) {
		t.Fatal("an expired write overtook the older read of its block")
	}
}

// TestMemDiskWriteExpiresUnderReadStream: two readers that keep a read
// queued at every dispatch for a second pass over a write only until it has
// waited writeExpire; it then dispatches next, behind the read in service.
func TestMemDiskWriteExpiresUnderReadStream(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 100_000)
	var reader func(lbn int64)
	reader = func(lbn int64) {
		d.ReadBlocks(lbn, [][]byte{make([]byte, 512)}, func(error) {
			if eng.Now() < sim.Time(sim.Second) {
				reader((lbn + 20) % 4000)
			}
		})
	}
	reader(0)
	reader(10)
	var wrote sim.Time
	d.WriteBlocks(50_000, [][]byte{make([]byte, 512)}, func(error) { wrote = eng.Now() })
	eng.Run()
	per := d.model.ServiceTime(512)
	if wrote < sim.Time(writeExpire) || wrote > sim.Time(writeExpire+2*per) {
		t.Fatalf("write completed at %v, want within one read of its %v expiry (one transfer takes %v)", wrote, writeExpire, per)
	}
	if d.Reads < 900 {
		t.Fatalf("%d reads completed: the stream did not keep the arm busy for its second", d.Reads)
	}
}

// TestMemDiskCompletionRunsInSubmitContext: a transfer that waited in the
// queue completes in the span that was active when it was submitted, not in
// the one whose completion dispatched it.
func TestMemDiskCompletionRunsInSubmitContext(t *testing.T) {
	eng := sim.NewEngine()
	d := newDisk(eng, 1000)
	tr := trace.NewTracer(eng, "disk")
	var want, got []*trace.Span
	for i, lbn := range []int64{0, 100, 200, 300} {
		want = append(want, tr.Begin("op"))
		done := func(error) { got = append(got, trace.Active(eng)) }
		if i%2 == 0 {
			d.WriteBlocks(lbn, [][]byte{make([]byte, 512)}, done)
		} else {
			d.ReadBlocks(lbn, [][]byte{make([]byte, 512)}, done)
		}
	}
	eng.SetContext(nil)
	eng.Run()
	// Completion order: the write in service, then the reads, then the
	// other write.
	if wantOrder := []*trace.Span{want[0], want[1], want[3], want[2]}; !slices.Equal(got, wantOrder) {
		for i, s := range got {
			t.Logf("completion %d ran in span %d", i, s.ID())
		}
		t.Fatal("a queued transfer completed outside the span it was submitted in")
	}
}
