package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// This file is the benchmark's own load driver. It deliberately shares no
// code with internal/workload, so a rewrite there cannot move the yardstick.
// Every stream owns its generator, counters, latency samples and
// verification state and touches nothing shared while the engine runs, so
// the driver is safe on the sharded engine; the harness sums streams between
// runs, when every shard is quiescent.

const blockSize = extfs.BlockSize

// rng is splitmix64: small, seedable per stream, and the benchmark's own.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int   { return int(r.next() % uint64(n)) }
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }
func streamSeed(seed uint64, workload string, stream int) rng {
	h := rng(seed)
	for _, c := range []byte(workload) {
		h = rng(h.next() ^ uint64(c))
	}
	return rng(h.next() ^ uint64(stream)*0xc2b2ae3d27d4eb4f)
}

// fillBlock writes block lbn's content at version tag into dst, one 8-byte
// word at a time. Tag 0 is the never-written content the disks synthesize; a
// written block carries its tag (owner stream and write sequence) in word 0,
// so any reader can tell which write it is looking at.
func fillBlock(lbn int64, tag uint64, dst []byte) {
	x := uint64(lbn)*0x9e3779b97f4a7c15 ^ tag*0xc2b2ae3d27d4eb4f
	for i := 0; i+8 <= len(dst); i += 8 {
		x += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(dst[i:], x^x>>31)
	}
	if tag != 0 {
		binary.LittleEndian.PutUint64(dst, tag)
	}
}

// blockIs reports whether p holds block lbn at version tag.
func blockIs(lbn int64, tag uint64, p []byte) bool {
	x := uint64(lbn)*0x9e3779b97f4a7c15 ^ tag*0xc2b2ae3d27d4eb4f
	for i := 0; i+8 <= len(p); i += 8 {
		x += 0x9e3779b97f4a7c15
		want := x ^ x>>31
		if i == 0 && tag != 0 {
			want = tag
		}
		if binary.LittleEndian.Uint64(p[i:]) != want {
			return false
		}
	}
	return true
}

func synth(lbn int64, dst []byte) { fillBlock(lbn, 0, dst) }

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opGetattr
	opLookup
	opReaddir
	opCreate
	opRemove
)

// Latency classes (nfs.read_*, nfs.write_*, nfs.meta_*) and span names.
const (
	clsRead = iota
	clsWrite
	clsMeta
	numClasses
)

var classNames = [numClasses]string{"read", "write", "meta"}

func (k opKind) class() int {
	if k <= opWrite {
		return int(k)
	}
	return clsMeta
}

type op struct {
	kind opKind
	file int
	off  uint64
	size int
	ver  uint32   // write sequence stamped into the payload
	due  sim.Time // when the op was due; latency counts from here
}

type fileRef struct {
	name     string
	fh       nfs.FH
	startLBN int64 // files are contiguous on the volume
	size     uint64
}

// written tracks one block a stream has written: the highest version acked,
// the highest issued, and when the last ack landed.
type written struct {
	acked, issued uint32
	ackedAt       sim.Time
}

type routeFn func(nfs.FH, func(*nfs.Client, error))

type driver struct {
	w       *workload
	seed    uint64
	files   []fileRef
	streams []*stream
	tracer  *trace.Tracer // nil unless traced
	// slotBytes is the write-ownership grain (the largest write size);
	// stream i owns global slot g when g % len(streams) == i, so exactly
	// one stream ever writes a block and "last acked" is unambiguous.
	slotBytes    int
	slotsPerFile int
	// seqNext is the sequential scan's cursor, from a seed-dependent start.
	// It is the one piece of state streams share — whichever stream issues
	// next takes the next slot, as the readers of one file position do — so
	// seqRead workloads run on the sequential engine only.
	seqNext uint64
	// wnext and exhausted belong to writeOnce workloads (see freshSlot); a
	// run that wraps the write space is reported as an error.
	wnext     int
	exhausted bool
	// The fields below are written only between engine runs.
	stopped   bool
	recording bool // latency samples are kept (the window)
	verifyAll bool // check every READ's bytes, not the 1-in-64 sample
	// onDone continues a stream after a completion: re-issue (closed loop),
	// nothing (open loop), or the next queued read (prefill, read-back).
	onDone func(*stream)
}

type stream struct {
	d     *driver
	id    int
	eng   *sim.Engine
	route routeFn
	rng   rng

	reads   uint64
	wseq    uint32
	wslot   int // write cursor: which owned slot, and how far into it
	wpos    int
	tmp     uint64 // create+remove name counter
	pending bool   // a created file awaits its remove
	blocks  map[uint64]written
	queue   []op // verified reads to run in order (prefill, read-back)
	scratch []byte

	attempted, failed, ops, bytes, verified uint64
	outstanding, peak                       int
	lat                                     [numClasses][]int64
	late                                    []int64
	errs                                    []string
}

func newDriver(w *workload, files []fileRef, seed uint64) *driver {
	slot := w.mix.writeSize
	if slot == 0 {
		slot = maxIO
	}
	base := streamSeed(seed, w.seedName(), -1)
	return &driver{
		w: w, seed: seed, files: files,
		slotBytes: slot, slotsPerFile: int(w.fileBytes) / slot,
		seqNext: base.next(),
	}
}

func (d *driver) addStream(eng *sim.Engine, route routeFn) {
	id := len(d.streams)
	d.streams = append(d.streams, &stream{
		d: d, id: id, eng: eng, route: route,
		rng:     streamSeed(d.seed, d.w.seedName(), id),
		blocks:  map[uint64]written{},
		scratch: make([]byte, maxIO),
	})
}

// start launches the load: every open-loop stream schedules its first
// arrival, every closed-loop stream its first issue.
func (d *driver) start() {
	first := (*stream).arrive
	d.onDone = nil
	if d.w.rate == 0 {
		first, d.onDone = (*stream).issue, (*stream).think
	}
	for _, s := range d.streams {
		first(s)
	}
}

// thinkNs bounds a closed-loop client's think time between a reply and its
// next request. It is far below any request latency, so it does not lower
// the offered load; it is here because a deterministic testbed under
// identical requests locks into one periodic schedule whatever the seed,
// and real clients do not turn replies around in zero time.
const thinkNs = 20_000

func (s *stream) think() {
	s.eng.Schedule(sim.Duration(s.rng.intn(thinkNs)), s.issue)
}

func (s *stream) issue() {
	if !s.d.stopped {
		s.begin(s.next(), s.eng.Now())
	}
}

// gap draws an exponential inter-arrival time for this stream's share of
// the aggregate rate.
func (s *stream) gap() sim.Duration {
	perStream := s.d.w.rate / float64(len(s.d.streams))
	return sim.Duration(-math.Log(1-s.rng.float64()) / perStream * float64(sim.Second))
}

// arrive is one open-loop arrival: the op is due now whether or not the
// system keeps up; over the outstanding cap it is refused and counts failed.
func (s *stream) arrive() {
	if s.d.stopped {
		return
	}
	if s.outstanding >= s.d.w.maxOut/len(s.d.streams) {
		s.attempted++
		s.fail(errors.New("refused: over the outstanding cap"))
	} else {
		s.begin(s.next(), s.eng.Now())
	}
	s.eng.Schedule(s.gap(), s.arrive)
}

var sfsSizes = []struct{ size, weight int }{{4096, 60}, {8192, 25}, {16384, 10}, {32768, 5}}

// maxIO is the largest request any workload issues (nfs.MaxReadSize).
const maxIO = 32 << 10

func (s *stream) sfsSize() int {
	v := s.rng.intn(100)
	for _, z := range sfsSizes {
		if v < z.weight {
			return z.size
		}
		v -= z.weight
	}
	return sfsSizes[0].size
}

// next draws the stream's next operation from the workload's mix.
func (s *stream) next() op {
	m, d := &s.d.w.mix, s.d
	if s.pending {
		s.pending = false
		return op{kind: opRemove}
	}
	if m.dataPct < 100 && s.rng.intn(100) >= m.dataPct {
		o := op{file: s.rng.intn(len(d.files))}
		switch v := s.rng.intn(100); {
		case v < 45:
			o.kind = opGetattr
		case v < 80:
			o.kind = opLookup
		case v < 90:
			o.kind = opReaddir
		default:
			o.kind = opCreate
			s.tmp++
			s.pending = true
		}
		return o
	}
	if s.rng.float64() < m.writeFrac {
		size := m.writeSize
		if size == 0 {
			size = s.sfsSize()
		}
		// The stream fills a slot front to back, then moves to its next one
		// (from a seed-drawn first), so it rewrites a block only after every
		// other block it owns.
		owned := (len(d.files)*d.slotsPerFile - s.id + len(d.streams) - 1) / len(d.streams)
		if s.wseq == 0 {
			s.wslot, s.wpos = s.rng.intn(owned), d.slotBytes
		}
		if pad := s.wpos % size; pad != 0 {
			s.wpos += size - pad
		}
		if s.wpos >= d.slotBytes {
			s.wpos, s.wslot = 0, (s.wslot+1)%owned
			if d.w.writeOnce {
				s.wslot = d.freshSlot()
			}
		}
		g := s.id + s.wslot*len(d.streams)
		if d.w.writeOnce {
			g = s.wslot
		}
		off := (g%d.slotsPerFile)*d.slotBytes + s.wpos
		s.wpos += size
		s.wseq++
		return op{kind: opWrite, file: g / d.slotsPerFile, off: uint64(off), size: size, ver: s.wseq}
	}
	size := m.readSize
	if size == 0 {
		size = s.sfsSize()
	}
	if m.seqRead {
		span := d.files[0].size / uint64(size)
		slot := d.seqNext % span
		d.seqNext++
		return op{kind: opRead, off: slot * uint64(size), size: size}
	}
	f := s.rng.intn(len(d.files))
	span := int(d.files[f].size) / size
	return op{kind: opRead, file: f, off: uint64(s.rng.intn(span) * size), size: size}
}

func (s *stream) tmpName() string { return fmt.Sprintf("tmp-%d-%d", s.id, s.tmp) }

// begin issues one operation and checks its reply.
func (s *stream) begin(o op, due sim.Time) {
	o.due = due
	s.attempted++
	if s.outstanding++; s.outstanding > s.peak {
		s.peak = s.outstanding
	}
	if s.d.recording && s.d.w.rate > 0 {
		s.late = append(s.late, int64(s.eng.Now()-due))
	}
	f := &s.d.files[o.file]
	sp := s.d.tracer.BeginOn(s.eng, classNames[o.kind.class()])
	done := func(n int, err error) {
		sp.Finish()
		s.outstanding--
		if err != nil {
			s.fail(fmt.Errorf("%s %s@%d+%d: %w", classNames[o.kind.class()], f.name, o.off, o.size, err))
		} else {
			s.ops++
			s.bytes += uint64(n)
			if s.d.recording {
				c := o.kind.class()
				s.lat[c] = append(s.lat[c], int64(s.eng.Now()-o.due))
			}
		}
		if s.d.onDone != nil {
			s.d.onDone(s)
		}
	}
	s.route(f.fh, func(c *nfs.Client, err error) {
		if err != nil {
			done(0, fmt.Errorf("route: %w", err))
			return
		}
		root := nfs.RootFH()
		switch o.kind {
		case opRead:
			c.Read(f.fh, o.off, o.size, func(data *netbuf.Chain, _ nfs.Attr, err error) {
				if err == nil {
					err = s.checkRead(o, f, data)
					data.Release()
				}
				done(o.size, err)
			})
		case opWrite:
			data, err := s.payload(c, o, f)
			if err != nil {
				done(0, err)
				return
			}
			c.Write(f.fh, o.off, data, func(n int, _ nfs.Attr, err error) {
				if err == nil && n != o.size {
					err = fmt.Errorf("short write: %d", n)
				}
				if err == nil {
					s.ack(o)
				}
				done(n, err)
			})
		case opGetattr:
			c.Getattr(f.fh, func(a nfs.Attr, err error) {
				if err == nil && a.Size != f.size {
					err = fmt.Errorf("size %d, want %d", a.Size, f.size)
				}
				done(0, err)
			})
		case opLookup:
			c.Lookup(root, f.name, func(fh nfs.FH, _ nfs.Attr, err error) {
				if err == nil && fh != f.fh {
					err = fmt.Errorf("handle %x, want %x", fh, f.fh)
				}
				done(0, err)
			})
		case opReaddir:
			c.Readdir(root, func(names []string, err error) {
				if err == nil && len(names) < len(s.d.files) {
					err = fmt.Errorf("%d entries, want >= %d", len(names), len(s.d.files))
				}
				done(0, err)
			})
		case opCreate:
			c.Create(root, s.tmpName(), func(_ nfs.FH, _ nfs.Attr, err error) { done(0, err) })
		case opRemove:
			c.Remove(root, s.tmpName(), func(err error) { done(0, err) })
		}
	})
}

func (s *stream) fail(err error) {
	s.failed++
	if len(s.errs) < 3 {
		s.errs = append(s.errs, fmt.Sprintf("stream %d: %v", s.id, err))
	}
}

func (s *stream) tag(ver uint32) uint64 { return uint64(s.id+1)<<32 | uint64(ver) }

func blockKey(file int, block uint64) uint64 { return uint64(file)<<32 | block }

// payload builds a WRITE's bytes in pooled block buffers, one file-system
// block per buffer, each stamped with this stream's tag.
func (s *stream) payload(c *nfs.Client, o op, f *fileRef) (*netbuf.Chain, error) {
	ch, err := c.Node().BlkPool.GetZeroChain(o.size)
	if err != nil {
		return nil, err
	}
	first := o.off / blockSize
	for i, b := range ch.Bufs() {
		blk := first + uint64(i)
		fillBlock(f.startLBN+int64(blk), s.tag(o.ver), b.Bytes())
		k := blockKey(o.file, blk)
		w := s.blocks[k]
		w.issued = o.ver
		s.blocks[k] = w
	}
	return ch, nil
}

func (s *stream) ack(o op) {
	for b := o.off / blockSize; b < (o.off+uint64(o.size))/blockSize; b++ {
		k := blockKey(o.file, b)
		w := s.blocks[k]
		if o.ver > w.acked {
			w.acked, w.ackedAt = o.ver, s.eng.Now()
		}
		s.blocks[k] = w
	}
}

// freshSlot hands out the file set's slots once each, to whichever stream
// asks next; like the scan cursor it is shared, so writeOnce workloads run on
// the sequential engine only.
func (d *driver) freshSlot() int {
	if d.wnext == len(d.files)*d.slotsPerFile {
		d.exhausted = true
		d.wnext = 0
	}
	d.wnext++
	return d.wnext - 1
}

// ownerOf returns the one stream that may write a block, or -1 for the tail
// of a file that no whole slot covers.
func (d *driver) ownerOf(file int, blk uint64) int {
	slot := int(blk) * blockSize / d.slotBytes
	if slot >= d.slotsPerFile {
		return -1
	}
	return (file*d.slotsPerFile + slot) % len(d.streams)
}

// checkRead checks a READ reply's length and, on every reply when verifyAll
// is set and on a deterministic 1-in-64 sample otherwise, its bytes: each
// block must be the synthesized content or a write its owner stamped, and a
// stream's own blocks must be no older than its last acked write.
func (s *stream) checkRead(o op, f *fileRef, data *netbuf.Chain) error {
	if data.Len() != o.size {
		return fmt.Errorf("short read: %d", data.Len())
	}
	s.reads++
	if !s.d.verifyAll && s.reads%64 != 0 {
		return nil
	}
	buf := s.scratch[:o.size]
	data.Gather(buf)
	d := s.d
	for i := 0; i < o.size; i += blockSize {
		blk := (o.off + uint64(i)) / blockSize
		lbn := f.startLBN + int64(blk)
		p := buf[i : i+blockSize]
		var tag uint64
		if !blockIs(lbn, 0, p) {
			tag = binary.LittleEndian.Uint64(p)
			if !blockIs(lbn, tag, p) {
				return fmt.Errorf("block %d: wrong bytes", blk)
			}
		}
		writer, ver := int(tag>>32)-1, uint32(tag)
		if owner := d.ownerOf(o.file, blk); tag != 0 && !d.w.writeOnce && writer != owner {
			return fmt.Errorf("block %d: written by stream %d, owned by %d", blk, writer, owner)
		}
		if w, mine := s.blocks[blockKey(o.file, blk)]; mine {
			if (tag != 0 && writer != s.id) || ver > w.issued || (ver < w.acked && w.ackedAt <= o.due) {
				return fmt.Errorf("block %d: stream %d's version %d, want own %d..%d", blk, writer, ver, w.acked, w.issued)
			}
		}
	}
	s.verified += uint64(o.size)
	return nil
}

// runQueued starts every stream on its queue of verified reads.
func (d *driver) runQueued() {
	d.stopped, d.verifyAll = false, true
	d.onDone = (*stream).nextQueued
	for _, s := range d.streams {
		s.nextQueued()
	}
}

func (s *stream) nextQueued() {
	if len(s.queue) > 0 {
		o := s.queue[0]
		s.queue = s.queue[1:]
		s.begin(o, s.eng.Now())
	}
}

// prefill queues one sequential pass over every file, spread over streams.
func (d *driver) prefill() {
	for i, f := range d.files {
		s := d.streams[i%len(d.streams)]
		for off := uint64(0); off < f.size; off += maxIO {
			size := f.size - off
			if size > maxIO {
				size = maxIO
			}
			s.queue = append(s.queue, op{kind: opRead, file: i, off: off, size: int(size)})
		}
	}
	d.runQueued()
}

// readBack queues one verified READ per block each stream wrote; after the
// drain every write is acked, so each must return exactly the last version.
func (d *driver) readBack() {
	for _, s := range d.streams {
		keys := make([]uint64, 0, len(s.blocks))
		for k := range s.blocks {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			s.queue = append(s.queue, op{kind: opRead, file: int(k >> 32), off: (k & 0xffffffff) * blockSize, size: blockSize})
		}
	}
	d.runQueued()
}
