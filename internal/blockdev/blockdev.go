// Package blockdev models the storage hardware behind the iSCSI target: an
// in-memory block store with a disk service-time model. RAID-0 striping
// across several disks (the paper's array of four IDE drives) lives in
// internal/storage, which composes these disks into volumes.
//
// Block contents are real bytes (integrity checks compare them end to end),
// but blocks never explicitly written are synthesized on demand from a
// deterministic function of the block number, so a "2 GB file system" costs
// only the blocks actually dirtied.
package blockdev

import (
	"errors"
	"fmt"

	"ncache/internal/fault"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// Geometry describes a device's addressing.
type Geometry struct {
	BlockSize int
	NumBlocks int64
}

// Span validates a Device request against the geometry — every buffer a
// whole number of blocks, the blocks they cover inside the device — and
// returns how many blocks that is.
func (g Geometry) Span(lbn int64, bufs [][]byte) (int, error) {
	n := 0
	for _, b := range bufs {
		if len(b)%g.BlockSize != 0 {
			return 0, fmt.Errorf("%w: %d", ErrBadLength, len(b))
		}
		n += len(b)
	}
	count := n / g.BlockSize
	if lbn < 0 || lbn+int64(count) > g.NumBlocks {
		return 0, fmt.Errorf("%w: [%d,+%d) of %d", ErrOutOfRange, lbn, count, g.NumBlocks)
	}
	return count, nil
}

// Errors returned by devices.
var (
	ErrOutOfRange = errors.New("blockdev: block out of range")
	ErrBadLength  = errors.New("blockdev: data length not block-aligned")
	// ErrTransient is an injected transient device error: the medium is
	// fine and a retry of the same I/O is expected to succeed.
	ErrTransient = errors.New("blockdev: transient device error")
)

// Device is an asynchronous block store. Completion callbacks fire in
// simulation-event context after the modeled service time elapses.
//
// Payloads cross the interface in the caller's memory, as a vector of
// buffers that each hold a whole number of blocks and together cover
// consecutive blocks starting at lbn. The caller's buffers (and the vector
// itself) belong to the device until done runs; the device retains nothing
// after. A failed read leaves the buffers' contents unspecified.
type Device interface {
	Geometry() Geometry
	// ReadBlocks fills dsts with the blocks starting at lbn.
	ReadBlocks(lbn int64, dsts [][]byte, done func(error))
	// WriteBlocks stores the blocks in srcs starting at lbn.
	WriteBlocks(lbn int64, srcs [][]byte, done func(error))
}

// Model is a disk service-time model: a fixed per-request overhead (seek +
// rotation + command processing) plus media transfer at a streaming rate.
type Model struct {
	// PerRequest is charged once per I/O.
	PerRequest sim.Duration
	// BytesPerSec is the media streaming rate.
	BytesPerSec int64
}

// IDE2000 approximates the paper's IBM DTLA-307075 drives: ~37 MB/s media
// rate, ~1 ms average positioning overhead under the mixed loads used here.
func IDE2000() Model {
	return Model{PerRequest: sim.Millisecond, BytesPerSec: 37_000_000}
}

// ServiceTime returns the modeled duration of one n-byte transfer.
func (m Model) ServiceTime(n int) sim.Duration {
	d := m.PerRequest
	if m.BytesPerSec > 0 {
		d += sim.Duration(int64(n) * int64(sim.Second) / m.BytesPerSec)
	}
	return d
}

// MemDisk is one simulated disk: sparse in-memory content plus a disk arm
// that serves one transfer at a time from a two-class dispatch queue, as an
// I/O scheduler in front of a drive does. Reads, which a client waits on,
// dispatch before queued writes (flusher batches, syncs, resync copies,
// acked before they reach the disk); each class is served in submission
// order. Two rules bound the reordering:
//   - a write that has waited writeExpire dispatches next, so a read stream
//     cannot starve writes;
//   - no transfer overtakes an earlier queued one whose blocks overlap its
//     own, so each block sees its transfers in submission order.
type MemDisk struct {
	eng    *sim.Engine
	name   string
	geom   Geometry
	model  Model
	arm    *sim.Resource
	faults *fault.Injector
	blocks map[int64][]byte
	// image carves the blocks first written through WriteBlocks; they live
	// as long as the disk, so the slab does too.
	image netbuf.Slab[byte]
	free  netbuf.FreeList[*diskIO] // completed transfer records, reused by submit
	// busy is set while a transfer holds the arm; reads and writes queue the
	// rest, and seq numbers transfers in submission order.
	busy          bool
	reads, writes ioQueue
	seq           uint64
	// lastEnd tracks the block after the previous I/O: a request starting
	// exactly there is sequential and skips the positioning overhead
	// (track buffer + read-ahead make streaming transfers seek-free).
	lastEnd int64
	// Synthesize provides content for never-written blocks. Nil means
	// zero-filled.
	Synthesize func(lbn int64, dst []byte)

	// Reads/Writes count completed operations.
	Reads, Writes uint64
	// BytesRead/BytesWritten count payload volume.
	BytesRead, BytesWritten uint64
	// FaultErrors counts I/Os failed by injected transient errors.
	FaultErrors uint64
}

// writeExpire is how long a queued write may be passed over by reads before
// it dispatches next: Linux CFQ's async FIFO expiry (fifo_expire_async,
// HZ/4).
const writeExpire = 250 * sim.Millisecond

var _ Device = (*MemDisk)(nil)

// NewMemDisk creates a disk with the given geometry and timing model.
func NewMemDisk(eng *sim.Engine, name string, geom Geometry, model Model) *MemDisk {
	return &MemDisk{
		eng:     eng,
		name:    name,
		geom:    geom,
		model:   model,
		arm:     sim.NewResource(eng),
		blocks:  make(map[int64][]byte),
		lastEnd: -1,
	}
}

// SetFaults installs the fault injector consulted on every I/O (the disk's
// injection site is its name, e.g. "disk0"). Nil disables injection.
func (d *MemDisk) SetFaults(in *fault.Injector) { d.faults = in }

// Geometry returns the disk's addressing.
func (d *MemDisk) Geometry() Geometry { return d.geom }

// Utilization reports the arm's busy fraction since stats reset.
func (d *MemDisk) Utilization() float64 { return d.arm.Utilization() }

// ResetStats restarts the arm's measurement window.
func (d *MemDisk) ResetStats() {
	d.arm.ResetStats()
	d.Reads, d.Writes, d.BytesRead, d.BytesWritten = 0, 0, 0, 0
}

// serviceTime models one transfer, charging the positioning overhead only
// for non-sequential access.
func (d *MemDisk) serviceTime(lbn int64, n int) sim.Duration {
	t := d.model.ServiceTime(n)
	if lbn == d.lastEnd {
		t -= d.model.PerRequest
	}
	d.lastEnd = lbn + int64((n+d.geom.BlockSize-1)/d.geom.BlockSize)
	return t
}

// diskIO is one queued transfer. The disk recycles them (with the completion
// closure the arm calls, built once), so a steady-state I/O allocates
// nothing on the host. ctx is the engine context it was submitted in, which
// its completion runs in; next links it into its class's queue.
type diskIO struct {
	netbuf.Recycled
	d     *MemDisk
	write bool
	lbn   int64
	bufs  [][]byte
	n     int
	fail  bool
	delay sim.Duration
	seq   uint64
	at    sim.Time
	ctx   any
	next  *diskIO
	done  func(error)
	fire  func()
}

// end is the block after the transfer.
func (io *diskIO) end() int64 { return io.lbn + int64(io.n/io.d.geom.BlockSize) }

// ioQueue is one class's queue of transfers, oldest first, linked through
// diskIO.next.
type ioQueue struct{ head, tail *diskIO }

func (q *ioQueue) push(io *diskIO) {
	if q.tail == nil {
		q.head = io
	} else {
		q.tail.next = io
	}
	q.tail = io
}

func (q *ioQueue) pop() *diskIO {
	io := q.head
	q.head, io.next = io.next, nil
	if q.head == nil {
		q.tail = nil
	}
	return io
}

// blocks reports whether a transfer queued in q before x overlaps x's
// blocks, so that x may not overtake it.
func (q *ioQueue) blocks(x *diskIO) bool {
	for io := q.head; io != nil && io.seq < x.seq; io = io.next {
		if io.lbn < x.end() && x.lbn < io.end() {
			return true
		}
	}
	return false
}

// submit validates a transfer and queues it for the arm.
func (d *MemDisk) submit(write bool, lbn int64, bufs [][]byte, done func(error)) {
	count, err := d.geom.Span(lbn, bufs)
	if err != nil {
		done(err)
		return
	}
	io := d.free.Take()
	if io == nil {
		io = &diskIO{d: d}
		io.fire = io.complete
	}
	trace.To(d.eng, trace.LDisk)
	fd := d.faults.Disk(d.name)
	io.write, io.lbn, io.bufs, io.n, io.fail, io.delay, io.done = write, lbn, bufs, count*d.geom.BlockSize, fd.Err, fd.Delay, done
	io.seq, io.at, io.ctx = d.seq, d.eng.Now(), d.eng.Context()
	d.seq++
	if write {
		d.writes.push(io)
	} else {
		d.reads.push(io)
	}
	if !d.busy {
		d.dispatch()
	}
}

// next takes the transfer the arm serves next: the oldest read, unless the
// oldest write has expired, or the read would overtake a queued write to
// its blocks. An expired write still yields to an earlier queued read of its
// blocks; the oldest read then overtakes no write, as every queued write is
// younger than it.
func (d *MemDisk) next() *diskIO {
	r, w := d.reads.head, d.writes.head
	switch {
	case r == nil:
		return d.writes.pop()
	case w == nil:
		return d.reads.pop()
	case d.eng.Now().Sub(w.at) >= writeExpire && !d.reads.blocks(w):
		return d.writes.pop()
	case d.writes.blocks(r):
		return d.writes.pop()
	}
	return d.reads.pop()
}

// dispatch starts the next queued transfer, if any, on the idle arm. Its
// service time is set now, when the arm position it starts from is known,
// and it runs in the context it was submitted in.
func (d *MemDisk) dispatch() {
	if d.reads.head == nil && d.writes.head == nil {
		d.busy = false
		return
	}
	d.busy = true
	io := d.next()
	ctx := d.eng.Context()
	d.eng.SetContext(io.ctx)
	d.arm.Use(d.serviceTime(io.lbn, io.n)+io.delay, io.fire)
	d.eng.SetContext(ctx)
}

// complete runs when the arm finishes the transfer: it moves the bytes
// between the caller's buffers and the sparse image, starts the next queued
// transfer, then hands the buffers back by calling done.
func (io *diskIO) complete() {
	d, done := io.d, io.done
	var err error
	switch {
	case io.fail:
		d.FaultErrors++
		err = ErrTransient
	case io.write:
		d.transfer(true, io.lbn, io.bufs)
		d.Writes++
		d.BytesWritten += uint64(io.n)
	default:
		d.transfer(false, io.lbn, io.bufs)
		d.Reads++
		d.BytesRead += uint64(io.n)
	}
	io.bufs, io.done, io.ctx = nil, nil, nil
	d.free.Put(io)
	d.dispatch()
	done(err)
}

// transfer moves consecutive blocks between bufs and the image.
func (d *MemDisk) transfer(write bool, lbn int64, bufs [][]byte) {
	bs := d.geom.BlockSize
	for _, buf := range bufs {
		for off := 0; off < len(buf); off += bs {
			if write {
				d.store(lbn, buf[off:off+bs])
			} else {
				d.peek(lbn, buf[off:off+bs])
			}
			lbn++
		}
	}
}

// store writes one whole block in place; a first write carves the block
// from the image slab.
func (d *MemDisk) store(lbn int64, src []byte) {
	b, ok := d.blocks[lbn]
	if !ok {
		b = d.image.Carve(d.geom.BlockSize)
		d.blocks[lbn] = b
	}
	copy(b, src)
}

// peek fills dst with one block's content. A never-written block is
// synthesized over zeros, whatever dst held before.
func (d *MemDisk) peek(lbn int64, dst []byte) {
	if stored, ok := d.blocks[lbn]; ok {
		copy(dst, stored)
		return
	}
	clear(dst)
	if d.Synthesize != nil {
		d.Synthesize(lbn, dst)
	}
}

// ReadBlocks implements Device.
func (d *MemDisk) ReadBlocks(lbn int64, dsts [][]byte, done func(error)) {
	d.submit(false, lbn, dsts, done)
}

// WriteBlocks implements Device.
func (d *MemDisk) WriteBlocks(lbn int64, srcs [][]byte, done func(error)) {
	d.submit(true, lbn, srcs, done)
}

// PeekBlock returns a block's current content without charging service time
// (setup and verification hook, not a data-path operation).
func (d *MemDisk) PeekBlock(lbn int64) []byte {
	out := make([]byte, d.geom.BlockSize)
	d.peek(lbn, out)
	return out
}

// PokeBlock stores a block's content without charging service time (setup
// hook used by mkfs; not a data-path operation). A block already in the
// image is overwritten in place; the image grows only on a first write, by
// one allocation of its own: set-up pokes a few scattered blocks per disk,
// and a slab carved for them would mostly stay unused.
func (d *MemDisk) PokeBlock(lbn int64, data []byte) {
	b, ok := d.blocks[lbn]
	if !ok {
		b = make([]byte, d.geom.BlockSize)
		d.blocks[lbn] = b
	}
	if n := copy(b, data); n < len(b) {
		clear(b[n:])
	}
}

// DirectAccess is the zero-time setup interface mkfs and experiment
// verifiers use: it bypasses the service-time model entirely.
type DirectAccess interface {
	Geometry() Geometry
	PeekBlock(lbn int64) []byte
	PokeBlock(lbn int64, data []byte)
}

var _ DirectAccess = (*MemDisk)(nil)
