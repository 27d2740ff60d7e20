package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ncache/internal/blockdev"
	"ncache/internal/fault"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
)

// The oracle is the striping RAID0 used before requests carried the caller's
// memory down to the members: stripeExtents, one fresh slab per member and
// per request, and a copy between them. It is kept as the reference the
// in-place fan-out is checked against.

// seg maps a run of blocks within a member request back to its position in
// the array request.
type seg struct {
	memberOff int // offset within the member request, in blocks
	reqStart  int // offset within the array request, in blocks
	count     int
}

// extent is one coalesced per-member request: successive stripe units on the
// same member are contiguous in member-LBN space, so a large sequential
// array request becomes exactly one I/O per member (each paying the
// positioning overhead once) — the coalescing a real striping driver does.
type extent struct {
	disk  int
	lbn   int64
	count int
	segs  []seg
}

// stripeExtents splits an array request into one coalesced request per
// member, in first-touch order.
func stripeExtents(n, unit int, lbn int64, count int) []extent {
	perDisk := make([]*extent, n)
	var order []*extent
	stripeRuns(n, unit, lbn, count, func(disk int, member int64, reqStart, run int) {
		ex := perDisk[disk]
		if ex == nil {
			ex = &extent{disk: disk, lbn: member}
			perDisk[disk] = ex
			order = append(order, ex)
		}
		// Member runs for a contiguous array request are contiguous on
		// each member by construction.
		ex.segs = append(ex.segs, seg{memberOff: ex.count, reqStart: reqStart, count: run})
		ex.count += run
	})
	out := make([]extent, len(order))
	for j, ex := range order {
		out[j] = *ex
	}
	return out
}

func oracleCheck(r *RAID0, lbn int64, count int) error {
	if lbn < 0 || count < 0 || lbn+int64(count) > r.geom.NumBlocks {
		return fmt.Errorf("%w: [%d,+%d) of %d", blockdev.ErrOutOfRange, lbn, count, r.geom.NumBlocks)
	}
	return nil
}

func oracleRead(r *RAID0, lbn int64, count int, done func([]byte, error)) {
	if err := oracleCheck(r, lbn, count); err != nil {
		done(nil, err)
		return
	}
	r.Requests++
	if count == 0 {
		done(nil, nil)
		return
	}
	bs := r.geom.BlockSize
	exts := stripeExtents(len(r.disks), r.stripeUnit, lbn, count)
	out := make([]byte, count*bs)
	remaining := len(exts)
	var firstErr error
	for _, ex := range exts {
		ex := ex
		data := make([]byte, ex.count*bs)
		r.disks[ex.disk].ReadBlocks(ex.lbn, [][]byte{data}, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if err == nil {
				for _, sg := range ex.segs {
					copy(out[sg.reqStart*bs:(sg.reqStart+sg.count)*bs], data[sg.memberOff*bs:])
				}
			}
			remaining--
			if remaining == 0 {
				if firstErr != nil {
					done(nil, firstErr)
					return
				}
				done(out, nil)
			}
		})
	}
}

func oracleWrite(r *RAID0, lbn int64, data []byte, done func(error)) {
	bs := r.geom.BlockSize
	if len(data)%bs != 0 {
		done(fmt.Errorf("%w: %d", blockdev.ErrBadLength, len(data)))
		return
	}
	count := len(data) / bs
	if err := oracleCheck(r, lbn, count); err != nil {
		done(err)
		return
	}
	r.Requests++
	if count == 0 {
		done(nil)
		return
	}
	exts := stripeExtents(len(r.disks), r.stripeUnit, lbn, count)
	remaining := len(exts)
	var firstErr error
	for _, ex := range exts {
		chunk := make([]byte, ex.count*bs)
		for _, sg := range ex.segs {
			copy(chunk[sg.memberOff*bs:], data[sg.reqStart*bs:(sg.reqStart+sg.count)*bs])
		}
		r.disks[ex.disk].WriteBlocks(ex.lbn, [][]byte{chunk}, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 {
				done(firstErr)
			}
		})
	}
}

// twin is one of two identically built, identically faulted arrays.
type twin struct {
	eng *sim.Engine
	r   *RAID0
}

const (
	twinDisks = 3
	twinUnit  = 4
	twinBS    = 64
	twinPer   = 96 // blocks per member
)

func newTwin(t *testing.T, faults bool) twin {
	t.Helper()
	eng := sim.NewEngine()
	var in *fault.Injector
	if faults {
		// One stream per schedule, shared by the members, so the members
		// a fault strikes depend on the order they were issued in.
		var err error
		in, err = fault.NewFromSpec(eng, 7, "diskerr:d*:rate=0.08,slowdisk:d*:rate=0.2:delay=700us")
		if err != nil {
			t.Fatal(err)
		}
		in.Arm()
	}
	disks := make([]*blockdev.MemDisk, twinDisks)
	for i := range disks {
		disks[i] = blockdev.NewMemDisk(eng, fmt.Sprintf("d%d", i),
			blockdev.Geometry{BlockSize: twinBS, NumBlocks: twinPer}, blockdev.IDE2000())
		disks[i].SetFaults(in)
	}
	r, err := NewRAID0(disks, twinUnit)
	if err != nil {
		t.Fatal(err)
	}
	r.SetSynthesize(func(lbn int64, dst []byte) {
		for i := range dst {
			dst[i] = byte(lbn) ^ byte(i)
		}
	})
	return twin{eng, r}
}

// carve cuts buf into a random vector of whole-block pieces, some empty.
func carve(rng *sim.RNG, buf []byte) [][]byte {
	var vec [][]byte
	for len(buf) > 0 {
		if rng.Intn(5) == 0 {
			vec = append(vec, nil)
		}
		n := (1 + rng.Intn(2*twinUnit)) * twinBS
		if n > len(buf) {
			n = len(buf)
		}
		vec = append(vec, buf[:n])
		buf = buf[n:]
	}
	return vec
}

var sentinels = []error{nil, blockdev.ErrOutOfRange, blockdev.ErrBadLength, blockdev.ErrTransient}

// sameErr compares two completions' errors by sentinel.
func sameErr(a, b error) bool {
	for _, s := range sentinels {
		if errors.Is(a, s) || errors.Is(b, s) {
			return errors.Is(a, s) && errors.Is(b, s)
		}
	}
	return false
}

// TestRAID0MatchesCopyingOracle drives the same random request sequence —
// single-segment, stripe-crossing, several segments per member (more than
// disks x unit blocks), empty, out of range, misaligned, with and without
// injected member errors and delays — through the in-place fan-out and
// through the copying oracle on a twin array, and requires the same bytes,
// errors, completion instants, member traffic and final images.
func TestRAID0MatchesCopyingOracle(t *testing.T) {
	for _, faults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", faults), func(t *testing.T) {
			a, b := newTwin(t, faults), newTwin(t, faults)
			total := a.r.Geometry().NumBlocks
			rng := sim.NewRNG(42)
			seen := map[error]int{}
			for op := 0; op < 600; op++ {
				lbn := rng.Int63n(total + 4)
				count := 0
				switch rng.Intn(10) {
				case 0: // empty
				case 1, 2: // several segments per member
					count = twinDisks*twinUnit + 1 + rng.Intn(3*twinDisks*twinUnit)
				default:
					count = 1 + rng.Intn(2*twinUnit)
				}
				if rng.Intn(8) != 0 && lbn+int64(count) > total { // mostly in range
					lbn = rng.Int63n(total - int64(count) + 1)
				}
				size := count * twinBS
				if rng.Intn(40) == 0 {
					size += 10 // misaligned
				}
				write := rng.Intn(3) == 0
				data := make([]byte, size)
				var v uint64
				for j := range data {
					if j%8 == 0 {
						v = rng.Uint64()
					}
					data[j], v = byte(v), v>>8
				}

				var errA, errB error
				var atA, atB sim.Time
				var gotB []byte
				bufA := append([]byte(nil), data...) // a read lands over the previous owner's bytes
				vec := carve(rng, bufA)
				if write {
					a.r.WriteBlocks(lbn, vec, func(err error) { errA, atA = err, a.eng.Now() })
					oracleWrite(b.r, lbn, data, func(err error) { errB, atB = err, b.eng.Now() })
				} else if size%twinBS != 0 {
					continue // the oracle's read took a count: no misaligned form
				} else {
					a.r.ReadBlocks(lbn, vec, func(err error) { errA, atA = err, a.eng.Now() })
					oracleRead(b.r, lbn, count, func(got []byte, err error) { gotB, errB, atB = got, err, b.eng.Now() })
				}
				a.eng.Run()
				b.eng.Run()
				what := fmt.Sprintf("op %d (write=%v lbn=%d count=%d)", op, write, lbn, count)
				if !sameErr(errA, errB) {
					t.Fatalf("%s: err %v, oracle %v", what, errA, errB)
				}
				for _, s := range sentinels {
					if errors.Is(errA, s) {
						seen[s]++
					}
				}
				if atA != atB {
					t.Fatalf("%s: completed at %v, oracle at %v", what, atA, atB)
				}
				if !write && errA == nil && !bytes.Equal(bufA, gotB) {
					t.Fatalf("%s: bytes differ from the oracle's", what)
				}
				if a.r.Requests != b.r.Requests {
					t.Fatalf("%s: Requests %d, oracle %d", what, a.r.Requests, b.r.Requests)
				}
				for i, da := range a.r.Disks() {
					db := b.r.Disks()[i]
					if da.Reads != db.Reads || da.Writes != db.Writes || da.BytesRead != db.BytesRead ||
						da.BytesWritten != db.BytesWritten || da.FaultErrors != db.FaultErrors {
						t.Fatalf("%s: member %d traffic differs from the oracle's", what, i)
					}
				}
			}
			if faults != (seen[blockdev.ErrTransient] > 0) || seen[blockdev.ErrOutOfRange] == 0 ||
				seen[blockdev.ErrBadLength] == 0 || seen[nil] < 300 {
				t.Fatalf("sequence lost its coverage: completions by error %v", seen)
			}
			for lbn := int64(0); lbn < total; lbn++ {
				if !bytes.Equal(a.r.PeekBlock(lbn), b.r.PeekBlock(lbn)) {
					t.Fatalf("final images differ at block %d", lbn)
				}
			}
		})
	}
}

// TestRAID0SplitMatchesStripeExtents checks the member requests themselves:
// for every (lbn, count) of a small array, split issues the members
// stripeExtents names, in its order, with its (lbn, count), and each member
// vector is exactly the sub-slices of the request its segments cover.
func TestRAID0SplitMatchesStripeExtents(t *testing.T) {
	tw := newTwin(t, false)
	r := tw.r
	rng := sim.NewRNG(3)
	total := int(r.Geometry().NumBlocks)
	req := make([]byte, total*twinBS)
	for lbn := 0; lbn < total; lbn += 1 + rng.Intn(3) {
		for count := 1; lbn+count <= total; count += 1 + rng.Intn(7) {
			buf := req[:count*twinBS]
			io, err := r.split(int64(lbn), carve(rng, buf))
			if err != nil {
				t.Fatal(err)
			}
			exts := stripeExtents(twinDisks, twinUnit, int64(lbn), count)
			if len(io.order) != len(exts) {
				t.Fatalf("[%d,+%d): %d member requests, want %d", lbn, count, len(io.order), len(exts))
			}
			for k, ex := range exts {
				m := io.members[io.order[k]]
				if io.order[k] != ex.disk || m.lbn != ex.lbn {
					t.Fatalf("[%d,+%d): request %d goes to disk %d lbn %d, want disk %d lbn %d",
						lbn, count, k, io.order[k], m.lbn, ex.disk, ex.lbn)
				}
				// Walk the vector against the segments' request offsets.
				at, left := 0, 0 // segment index, bytes left in it
				off := 0
				for _, piece := range m.bufs {
					for len(piece) > 0 {
						if left == 0 {
							off, left = ex.segs[at].reqStart*twinBS, ex.segs[at].count*twinBS
							at++
						}
						n := len(piece)
						if n > left {
							n = left
						}
						if &piece[0] != &buf[off] {
							t.Fatalf("[%d,+%d): member %d vector strays from its segments", lbn, count, ex.disk)
						}
						piece, off, left = piece[n:], off+n, left-n
					}
				}
				if at != len(ex.segs) || left != 0 {
					t.Fatalf("[%d,+%d): member %d vector covers %d of %d segments", lbn, count, ex.disk, at, len(ex.segs))
				}
			}
		}
	}
}

// TestRAID0ReadWriteAllocFree: after priming, array reads and overwrites of
// every extent shape allocate nothing on the host — no assembly slab, no
// per-member chunk, no extent list.
func TestRAID0ReadWriteAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	tw := newTwin(t, false)
	buf := make([]byte, 5*twinDisks*twinUnit*twinBS)
	one := [][]byte{buf[:2*twinBS]}                             // single segment
	cross := [][]byte{buf[:3*twinBS], buf[3*twinBS : 6*twinBS]} // crosses a stripe unit
	wide := [][]byte{buf}                                       // several segments per member
	done := func(err error) {
		if err != nil {
			t.Errorf("I/O: %v", err)
		}
	}
	step := func() {
		tw.r.WriteBlocks(1, one, done)
		tw.r.WriteBlocks(2, cross, done)
		tw.r.WriteBlocks(7, wide, done)
		tw.r.ReadBlocks(1, one, done)
		tw.r.ReadBlocks(2, cross, done)
		tw.r.ReadBlocks(7, wide, done)
		tw.r.ReadBlocks(100, wide, done) // synthesized
		tw.eng.Run()
	}
	step()
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("steady-state array I/O allocates %.1f objects per 7 requests, want 0", avg)
	}
}
