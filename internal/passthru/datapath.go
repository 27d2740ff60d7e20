package passthru

import (
	"ncache/internal/buffercache"
	"ncache/internal/extfs"
	"ncache/internal/lkey"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
	"ncache/internal/storage"
	"ncache/internal/trace"
)

// The AppServer methods in this file are the mode-specific regular-data
// movement of the server daemons: the only place in the assembly that knows
// which of the three configurations is running; everything above and below
// moves chains and keys obliviously.

// intercept puts the mode's lower-tier interception above one target's
// volume. Original mode has no module, so nothing to consult, capture, remap
// or announce: its volume is returned as it is.
func (s *AppServer) intercept(lower storage.Volume) storage.Volume {
	if s.Mode == Original {
		return lower
	}
	return &interceptVolume{Volume: lower, s: s}
}

// interceptVolume is Table 1's iSCSI modification — the "two functions
// invoking socket interface" — and the only place regular data is
// intercepted below the file system: NCache's second-level read cache, its
// capture of read payloads and its write-out substitution and remap, or the
// Baseline comparator's junk filter. Metadata passes through untouched.
//
// It wraps one target's volume: above the initiator's CHECK CONDITION retry
// and a mirror's arm fan-out, failover and resync, so each hook runs exactly
// once per logical I/O by construction; below the shard router, so capture,
// consult and remap announcement keep per-extent granularity.
type interceptVolume struct {
	storage.Volume
	s *AppServer
	// reads and writes are the free lists of the records (see
	// interceptRead and interceptWrite).
	reads  netbuf.FreeList[*interceptRead]
	writes netbuf.FreeList[*interceptWrite]
}

// interceptRead is the recycled record of one regular-data read through the
// interception: the run, the caller's completion and, on a second-level hit,
// the served junk across its lookup charge. arrived and served are bound
// once, when the record is first allocated; the record retires before the
// caller hears.
type interceptRead struct {
	netbuf.Recycled
	v      *interceptVolume
	lbn    int64
	blocks int
	data   *netbuf.Chain
	done   func(*netbuf.Chain, error)

	onData func(*netbuf.Chain, error)
	onHit  func()
}

// retire hands the record back to its volume.
func (r *interceptRead) retire() {
	*r = interceptRead{Recycled: r.Recycled, v: r.v, onData: r.onData, onHit: r.onHit}
	r.v.reads.Put(r)
}

// ReadAt serves a regular-data read from the network-centric cache when
// every block is resident (no command, no storage traffic); otherwise the
// payload the lower volume returns is captured (NCache) or dropped for junk
// (Baseline) before the file system sees it.
func (v *interceptVolume) ReadAt(lbn int64, blocks int, meta bool, done func(*netbuf.Chain, error)) {
	s := v.s
	if meta {
		v.Volume.ReadAt(lbn, blocks, meta, done)
		return
	}
	r := v.reads.Take()
	if r == nil {
		r = &interceptRead{v: v}
		r.onData, r.onHit = r.arrived, r.served
	}
	r.lbn, r.blocks, r.done = lbn, blocks, done
	if s.Mode == NCache {
		if data, ok := s.Module.ServeRead(lbn, blocks); ok {
			trace.To(s.Node.Eng, trace.LNCache)
			r.data = data
			s.Node.Charge(s.Node.Cost.NCacheLookupNs, r.onHit)
			return
		}
	}
	v.Volume.ReadAt(lbn, blocks, meta, r.onData)
}

// served delivers a second-level hit once its lookup is charged.
func (r *interceptRead) served() {
	data, done := r.data, r.done
	r.retire()
	done(data, nil)
}

// arrived captures (NCache) or junks (Baseline) the lower volume's payload.
func (r *interceptRead) arrived(data *netbuf.Chain, err error) {
	s, lbn, blocks, done := r.v.s, r.lbn, r.blocks, r.done
	r.retire()
	if err == nil {
		if s.Mode == NCache {
			data = s.Module.CaptureLBN(lbn, blocks, data)
		} else {
			data = s.junk(blocks, data)
		}
	}
	done(data, err)
}

// WriteAt runs NCache's write-out once per regular-data write — stamped
// junk becomes the cached payload, FHO entries remap to their LBNs — and
// settles the remap when the write lands (see interceptWrite.written).
func (v *interceptVolume) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	s := v.s
	if meta || s.Mode != NCache {
		v.Volume.WriteAt(lbn, data, meta, done)
		return
	}
	w := v.writes.Take()
	if w == nil {
		w = &interceptWrite{v: v}
		w.onWritten = w.written
	}
	w.done = done
	data, w.remapped, w.mark = s.Module.WriteOut(lbn, data.Len()/extfs.BlockSize, data, w.remapped)
	v.Volume.WriteAt(lbn, data, meta, w.onWritten)
}

// interceptWrite is the recycled record of one regular-data write through
// the interception: the caller's completion, and the LBNs the write-out
// re-indexed (whose capacity the record keeps) with its mark. written is
// bound once, when the record is first allocated; the record retires before
// the caller hears.
type interceptWrite struct {
	netbuf.Recycled
	v         *interceptVolume
	remapped  []int64
	mark      uint64
	done      func(error)
	onWritten func(error)
}

// written settles the remap once the write commits: the entries it carried
// turn clean (Module.Landed), and the re-indexed LBNs are announced to the
// control plane (only then, so a peer acting on the invalidation can never
// re-read stale bytes from storage). A failed write leaves them dirty for
// the flush that retries them.
func (w *interceptWrite) written(err error) {
	v, done := w.v, w.done
	s := v.s
	if err == nil {
		s.Module.Landed(w.remapped, w.mark)
		if ag := s.Agent; ag != nil && len(w.remapped) > 0 {
			ag.SendRemap(w.remapped) // copies the LBNs into its queue
		}
	}
	*w = interceptWrite{Recycled: w.Recycled, v: v, remapped: w.remapped[:0], onWritten: w.onWritten}
	v.writes.Put(w)
	done(err)
}

// junk is the Baseline comparator's receive filter: regular-data payloads
// are dropped at the socket boundary; identity-free junk flows instead.
func (s *AppServer) junk(blocks int, data *netbuf.Chain) *netbuf.Chain {
	data.Release()
	out := s.Node.BlkPool.NewChain(0)
	for i := 0; i < blocks; i++ {
		out.AppendChain(lkey.StampChainPool(s.Node.BlkPool, lkey.Key{}, extfs.BlockSize))
	}
	return out
}

// chargePhysical records n bytes moved in `stages` copy operations (the
// per-request stage count Table 2 reports) and bills the CPU.
func (s *AppServer) chargePhysical(stages, nbytes int) {
	s.Node.Copies.PhysicalOps += uint64(stages)
	s.Node.Copies.PhysicalBytes += uint64(nbytes)
	cost := s.Node.Cost.CopyCost(nbytes)
	trace.Account(s.Node.Eng, trace.LServer, cost)
	s.Node.Charge(cost, nil)
}

// chargeLogical records n key copies and bills the CPU.
func (s *AppServer) chargeLogical(n int) {
	s.Node.Copies.LogicalOps += uint64(n)
	cost := sim.Duration(n) * s.Node.Cost.LogicalCopyNs
	trace.Account(s.Node.Eng, trace.LServer, cost)
	s.Node.Charge(cost, nil)
}

// replyChain converts read extents into a transmit payload chain.
//
//   - real blocks: physical copies — two stages for the NFS daemon path
//     (read() into the daemon buffer, then sendto() into the stack), one
//     stage for the kHTTPd sendfile path (Table 2);
//   - logical blocks: a key copy per extent — the stamped junk travels and
//     the driver-level hook substitutes later;
//   - holes: zero-filled buffers, uncharged.
func (s *AppServer) replyChain(res *extfs.ReadResult, sendfile bool) *netbuf.Chain {
	out := s.Node.TxPool.NewChain(0)
	physBytes := 0
	logical := 0
	stages := 1
	if !sendfile {
		stages = 2
	}
	for _, e := range res.Extents {
		switch {
		case e.Block == nil:
			zc, _ := s.Node.BlkPool.GetZeroChain(e.Len) // pools are unbounded: the error is always nil
			out.AppendChain(zc)

		case e.Block.Logical:
			key := e.Block.Key
			if e.Off > 0 {
				key = key.WithSubOff(uint32(e.Off))
			}
			out.AppendChain(lkey.StampChainPool(s.Node.BlkPool, key, e.Len))
			logical++

		default:
			// Physical: the daemon-buffer copy and the socket copy
			// both walk the bytes; the pooled-chain build is the second.
			out.AppendChain(s.Node.TxPool.GetChain(s.Cache.Page(e.Block)[e.Off : e.Off+e.Len]))
			physBytes += e.Len
		}
	}
	if physBytes > 0 {
		s.chargePhysical(stages, physBytes*stages)
	}
	if logical > 0 {
		s.chargeLogical(logical)
	}
	return out
}

// applyWrite routes a WRITE's payload into the file system with the mode's
// data movement; written hears the end. The fillers are the record's own
// (bound once, reading the handle, offset and payload it carries), so a write
// builds no closure here.
func (k *backendCall) applyWrite() {
	s, data := k.b.srv, k.data
	bs := extfs.BlockSize
	trace.To(s.Node.Eng, trace.LFS)
	aligned := k.off%uint64(bs) == 0 && k.n%bs == 0 && k.n > 0

	switch {
	case s.Mode == NCache && aligned:
		// Capture the wire payload into the FHO cache; the file system
		// receives only keys (one logical copy per block).
		k.data = nil
		junk := s.Module.CaptureFHO(k.fh, k.off, data)
		junk.Release()
		s.chargeLogical(k.n / bs)
		k.write(k.fillFHO)

	case s.Mode == Baseline:
		// Ideal zero-copy: drop the payload, store junk markers.
		k.data = nil
		data.Release()
		k.write(k.fillJunk)

	default:
		// Physical path (Original, or unaligned writes in NCache mode):
		// one copy from the wire buffers into the buffer cache
		// (Table 2: "overwritten" = 1). The wire chain is scattered
		// straight into cache blocks — no flattened intermediate — and
		// stays referenced until the last filler has run (written
		// releases it).
		s.chargePhysical(1, k.n)
		k.write(k.fillWire)
	}
}

// write hands the WRITE to the file system with the given filler; a stable
// one completes once the blocks it dirtied are on storage.
func (k *backendCall) write(filler extfs.Filler) {
	if fs := k.b.srv.FS; k.sync {
		fs.WriteStable(k.ino, k.off, k.n, filler, k.onWritten)
	} else {
		fs.Write(k.ino, k.off, k.n, filler, k.onWritten)
	}
}

func (k *backendCall) stampFHO(b *buffercache.Block, blockOff, count, srcOff int) {
	k.b.srv.Cache.SetKey(b, lkey.ForFHO(k.fh, k.off+uint64(srcOff)))
}

func (k *backendCall) stampJunk(b *buffercache.Block, blockOff, count, srcOff int) {
	if blockOff == 0 {
		k.b.srv.Cache.SetKey(b, lkey.Key{})
	}
}

func (k *backendCall) copyWire(b *buffercache.Block, blockOff, count, srcOff int) {
	s := k.b.srv
	if b.Logical {
		// A partial overwrite of a key-carrying block must materialize
		// the real bytes first.
		s.materialize(b)
	}
	k.data.GatherRange(srcOff, s.Cache.Page(b)[blockOff:blockOff+count])
}

// materialize turns a logical block back into a real one by pulling the
// payload out of the NCache module (charging the copy). On a miss, and for
// Baseline junk, the block keeps the zeroed page Page gives it.
func (s *AppServer) materialize(b *buffercache.Block) {
	key := b.Key
	page := s.Cache.Page(b)
	if s.Module != nil && key.Flags != 0 && s.Module.Materialize(key, page) {
		s.chargePhysical(1, len(page))
	}
}

// mapErr converts file system errors to NFS statuses.
func mapErr(err error) uint32 {
	switch err {
	case nil:
		return nfs.OK
	case extfs.ErrNotFound:
		return nfs.ErrNoEnt
	case extfs.ErrExists:
		return nfs.ErrExist
	case extfs.ErrNotDir:
		return nfs.ErrNotDir
	case extfs.ErrIsDir:
		return nfs.ErrIsDir
	case extfs.ErrNoSpace:
		return nfs.ErrNoSpc
	case extfs.ErrNoInodes:
		return nfs.ErrNoSpc
	case extfs.ErrNotEmpty:
		return nfs.ErrNotEmpty
	case extfs.ErrNameTooLong:
		return nfs.ErrNameLong
	case extfs.ErrFileTooBig:
		return nfs.ErrFBig
	default:
		return nfs.ErrIO
	}
}
