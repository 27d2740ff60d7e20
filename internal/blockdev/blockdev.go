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

// MemDisk is one simulated disk: sparse in-memory content plus a service
// queue (one outstanding I/O at a time, FIFO — a disk arm).
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
// nothing on the host.
type diskIO struct {
	netbuf.Recycled
	d     *MemDisk
	write bool
	lbn   int64
	bufs  [][]byte
	n     int
	fail  bool
	done  func(error)
	fire  func()
}

// submit validates a transfer and queues it on the arm.
func (d *MemDisk) submit(write bool, lbn int64, bufs [][]byte, done func(error)) {
	count, err := d.geom.Span(lbn, bufs)
	if err != nil {
		done(err)
		return
	}
	n := count * d.geom.BlockSize
	io := d.free.Take()
	if io == nil {
		io = &diskIO{d: d}
		io.fire = io.complete
	}
	trace.To(d.eng, trace.LDisk)
	fd := d.faults.Disk(d.name)
	io.write, io.lbn, io.bufs, io.n, io.fail, io.done = write, lbn, bufs, n, fd.Err, done
	d.arm.Use(d.serviceTime(lbn, n)+fd.Delay, io.fire)
}

// complete runs when the arm finishes the transfer: it moves the bytes
// between the caller's buffers and the sparse image, then hands the
// buffers back by calling done.
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
	io.bufs, io.done = nil, nil
	d.free.Put(io)
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
