package storage

import (
	"errors"

	"ncache/internal/blockdev"
	"ncache/internal/netbuf"
)

// RAID0 stripes blocks across member disks in stripe-unit chunks, like the
// paper's 4-disk array. Requests spanning stripe units fan out to the
// member disks concurrently; completion is the slowest member's completion,
// which is what gives RAID-0 its aggregate streaming bandwidth.
//
// It lives in the storage package because striping is a layout concern, not
// a device-model one; the iSCSI target serves a RAID0 as its backing Device.
type RAID0 struct {
	disks      []*blockdev.MemDisk
	stripeUnit int // in blocks
	geom       blockdev.Geometry
	// Requests counts top-level I/Os (not per-member operations).
	Requests uint64
	free     netbuf.FreeList[*arrayIO] // completed request records, reused by split
}

var (
	_ blockdev.Device       = (*RAID0)(nil)
	_ blockdev.DirectAccess = (*RAID0)(nil)
)

// NewRAID0 builds an array over identical member disks with the given
// stripe unit in blocks.
func NewRAID0(disks []*blockdev.MemDisk, stripeUnitBlocks int) (*RAID0, error) {
	if len(disks) == 0 {
		return nil, errors.New("storage: raid0 needs at least one disk")
	}
	if stripeUnitBlocks <= 0 {
		return nil, errors.New("storage: stripe unit must be positive")
	}
	g := disks[0].Geometry()
	for _, d := range disks[1:] {
		if d.Geometry() != g {
			return nil, errors.New("storage: raid0 members must be identical")
		}
	}
	return &RAID0{
		disks:      disks,
		stripeUnit: stripeUnitBlocks,
		geom: blockdev.Geometry{
			BlockSize: g.BlockSize,
			NumBlocks: g.NumBlocks * int64(len(disks)),
		},
	}, nil
}

// Geometry returns the array's aggregate addressing.
func (r *RAID0) Geometry() blockdev.Geometry { return r.geom }

// Disks returns the member disks (for stats).
func (r *RAID0) Disks() []*blockdev.MemDisk { return r.disks }

// PeekBlock implements DirectAccess over the striped address space.
func (r *RAID0) PeekBlock(lbn int64) []byte {
	disk, member := r.locate(lbn)
	return r.disks[disk].PeekBlock(member)
}

// PokeBlock implements DirectAccess over the striped address space.
func (r *RAID0) PokeBlock(lbn int64, data []byte) {
	disk, member := r.locate(lbn)
	r.disks[disk].PokeBlock(member, data)
}

// SetSynthesize installs a content function over array block numbers,
// translating each member disk's block addresses back to array addresses.
// Used by experiments that need huge deterministic files without storing
// their bytes.
func (r *RAID0) SetSynthesize(fn func(arrayLBN int64, dst []byte)) {
	n := int64(len(r.disks))
	unit := int64(r.stripeUnit)
	for idx, d := range r.disks {
		idx := int64(idx)
		d.Synthesize = func(memberLBN int64, dst []byte) {
			memberStripe := memberLBN / unit
			within := memberLBN % unit
			arrayStripe := memberStripe*n + idx
			fn(arrayStripe*unit+within, dst)
		}
	}
}

// locate maps an array block to (disk index, member block).
func (r *RAID0) locate(lbn int64) (int, int64) {
	stripe := lbn / int64(r.stripeUnit)
	within := lbn % int64(r.stripeUnit)
	disk := int(stripe % int64(len(r.disks)))
	memberStripe := stripe / int64(len(r.disks))
	return disk, memberStripe*int64(r.stripeUnit) + within
}

// stripeRuns walks a request over a stripe layout of n members with the
// given unit, in address order: one visit per maximal run of blocks inside
// one stripe unit, with its member, its first member LBN, its offset in the
// request and its length (all in blocks).
func stripeRuns(n, unit int, lbn int64, count int, visit func(disk int, member int64, reqStart, run int)) {
	for i := 0; i < count; {
		at := lbn + int64(i)
		stripe, within := at/int64(unit), at%int64(unit)
		run := int(int64(unit) - within)
		if run > count-i {
			run = count - i
		}
		visit(int(stripe%int64(n)), (stripe/int64(n))*int64(unit)+within, i, run)
		i += run
	}
}

// arrayIO is one array request in flight: the per-member vectors of
// sub-slices of the caller's buffers, and the join of the member
// completions. The array recycles them, so a steady-state request allocates
// nothing on the host.
type arrayIO struct {
	netbuf.Recycled
	r         *RAID0
	members   []memberIO // indexed by disk
	order     []int      // disks in first-touch order, the issue order
	remaining int
	err       error
	done      func(error)
	join      func(error)
}

// memberIO is one coalesced member request: successive stripe units on the
// same member are contiguous in member-LBN space, so the runs of a
// contiguous array request append to one vector per member.
type memberIO struct {
	lbn  int64
	bufs [][]byte
}

// split validates an array request and maps it onto the members: each
// member's vector receives, in member-LBN order, the sub-slices of bufs its
// stripe units cover — the same member requests, in the same order, that
// the test oracle's stripeExtents describes, with the caller's memory in
// place of a staging slab. A nil arrayIO with a nil error is the empty request.
func (r *RAID0) split(lbn int64, bufs [][]byte) (*arrayIO, error) {
	count, err := r.geom.Span(lbn, bufs)
	if err != nil {
		return nil, err
	}
	r.Requests++
	if count == 0 {
		return nil, nil
	}
	io := r.free.Take()
	if io == nil {
		io = &arrayIO{r: r, members: make([]memberIO, len(r.disks))}
		io.join = io.memberDone
	}
	cur, off := 0, 0 // cursor over bufs
	stripeRuns(len(r.disks), r.stripeUnit, lbn, count, func(disk int, member int64, _, run int) {
		m := &io.members[disk]
		if len(m.bufs) == 0 {
			m.lbn = member
			io.order = append(io.order, disk)
		}
		for want := run * r.geom.BlockSize; want > 0; {
			if off == len(bufs[cur]) {
				cur, off = cur+1, 0
				continue
			}
			take := min(len(bufs[cur])-off, want)
			m.bufs = append(m.bufs, bufs[cur][off:off+take])
			off += take
			want -= take
		}
	})
	return io, nil
}

// issue fans the request out, one I/O per member in first-touch order;
// done fires at the slowest member's completion with the first error.
func (io *arrayIO) issue(op func(*blockdev.MemDisk, int64, [][]byte, func(error)), done func(error)) {
	io.done, io.remaining = done, len(io.order)
	r, order := io.r, io.order
	for _, disk := range order {
		m := &io.members[disk]
		op(r.disks[disk], m.lbn, m.bufs, io.join)
	}
}

// memberDone joins one member completion. The last one hands the caller's
// buffers back: the vectors are emptied before done runs.
func (io *arrayIO) memberDone(err error) {
	if err != nil && io.err == nil {
		io.err = err
	}
	io.remaining--
	if io.remaining > 0 {
		return
	}
	done, err := io.done, io.err
	for _, disk := range io.order {
		m := &io.members[disk]
		clear(m.bufs)
		m.bufs = m.bufs[:0]
	}
	io.order, io.done, io.err = io.order[:0], nil, nil
	io.r.free.Put(io)
	done(err)
}

// ReadBlocks implements Device by fanning out to member disks, each filling
// its share of dsts directly.
func (r *RAID0) ReadBlocks(lbn int64, dsts [][]byte, done func(error)) {
	io, err := r.split(lbn, dsts)
	if io == nil {
		done(err)
		return
	}
	io.issue((*blockdev.MemDisk).ReadBlocks, done)
}

// WriteBlocks implements Device by fanning out to member disks, each
// storing its share of srcs directly.
func (r *RAID0) WriteBlocks(lbn int64, srcs [][]byte, done func(error)) {
	io, err := r.split(lbn, srcs)
	if io == nil {
		done(err)
		return
	}
	io.issue((*blockdev.MemDisk).WriteBlocks, done)
}
