package passthru

import (
	"ncache/internal/buffercache"
	"ncache/internal/extfs"
	"ncache/internal/lkey"
	"ncache/internal/ncache"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/storage"
	"ncache/internal/trace"
)

// dataPath encapsulates the mode-specific regular-data movement of the
// server daemons. It is the only place in the assembly that knows which of
// the three configurations is running; everything above and below moves
// chains and keys obliviously.
type dataPath struct {
	srv  *AppServer
	mode Mode
	node *simnet.Node
	mod  *ncache.Module // non-nil only in NCache mode
	bs   int
}

// intercept puts the mode's lower-tier interception above one target's
// volume. Original mode has no module, so nothing to consult, capture, remap
// or announce: its volume is returned as it is.
func (p *dataPath) intercept(lower storage.Volume) storage.Volume {
	if p.mode == Original {
		return lower
	}
	return &interceptVolume{Volume: lower, p: p}
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
	p *dataPath
}

// ReadAt serves a regular-data read from the network-centric cache when
// every block is resident (no command, no storage traffic); otherwise the
// payload the lower volume returns is captured (NCache) or dropped for junk
// (Baseline) before the file system sees it.
func (v *interceptVolume) ReadAt(lbn int64, blocks int, meta bool, done func(*netbuf.Chain, error)) {
	p := v.p
	if meta {
		v.Volume.ReadAt(lbn, blocks, meta, done)
		return
	}
	if p.mode == NCache {
		if data, ok := p.mod.ServeRead(lbn, blocks); ok {
			trace.To(p.node.Eng, trace.LNCache)
			p.node.Charge(p.node.Cost.NCacheLookupNs, func() { done(data, nil) })
			return
		}
	}
	v.Volume.ReadAt(lbn, blocks, meta, func(data *netbuf.Chain, err error) {
		if err == nil {
			if p.mode == NCache {
				data = p.mod.CaptureLBN(lbn, blocks, data)
			} else {
				data = p.junk(blocks, data)
			}
		}
		done(data, err)
	})
}

// WriteAt runs NCache's write-out once per regular-data write — stamped
// junk becomes the cached payload, FHO entries remap to their LBNs — and
// settles the remap when the write completes: committed, the re-indexed
// LBNs are announced to the control plane (only then, so a peer acting on
// the invalidation can never re-read stale bytes from storage); failed, the
// entries are pinned again, because the buffer cache keeps the blocks dirty
// and the flush that retries them must find their data and remap afresh.
func (v *interceptVolume) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	p := v.p
	if meta || p.mode != NCache {
		v.Volume.WriteAt(lbn, data, meta, done)
		return
	}
	data, remapped := p.mod.WriteOut(lbn, data.Len()/p.bs, data)
	v.Volume.WriteAt(lbn, data, meta, func(err error) {
		if err != nil {
			p.mod.Repin(remapped)
		} else if ag := p.srv.Agent; ag != nil && len(remapped) > 0 && !p.srv.crashed {
			ag.SendRemap(remapped)
		}
		done(err)
	})
}

// junk is the Baseline comparator's receive filter: regular-data payloads
// are dropped at the socket boundary; identity-free junk flows instead.
func (p *dataPath) junk(blocks int, data *netbuf.Chain) *netbuf.Chain {
	if blocks <= 0 {
		return data
	}
	data.Release()
	out := netbuf.NewChain()
	for i := 0; i < blocks; i++ {
		out.AppendChain(lkey.StampChainPool(p.node.BlkPool, lkey.Key{}, p.bs))
	}
	return out
}

// chargePhysical records n bytes moved in `stages` copy operations (the
// per-request stage count Table 2 reports) and bills the CPU.
func (p *dataPath) chargePhysical(stages, nbytes int) {
	p.node.Copies.PhysicalOps += uint64(stages)
	p.node.Copies.PhysicalBytes += uint64(nbytes)
	cost := p.node.Cost.CopyCost(nbytes)
	trace.Account(p.node.Eng, trace.LServer, cost)
	p.node.Charge(cost, nil)
}

// chargeLogical records n key copies and bills the CPU.
func (p *dataPath) chargeLogical(n int) {
	p.node.Copies.LogicalOps += uint64(n)
	cost := sim.Duration(n) * p.node.Cost.LogicalCopyNs
	trace.Account(p.node.Eng, trace.LServer, cost)
	p.node.Charge(cost, nil)
}

// replyChain converts read extents into a transmit payload chain.
//
//   - real blocks: physical copies — two stages for the NFS daemon path
//     (read() into the daemon buffer, then sendto() into the stack), one
//     stage for the kHTTPd sendfile path (Table 2);
//   - logical blocks: a key copy per extent — the stamped junk travels and
//     the driver-level hook substitutes later;
//   - holes: zero-filled buffers, uncharged.
func (p *dataPath) replyChain(res *extfs.ReadResult, sendfile bool) *netbuf.Chain {
	out := netbuf.NewChain()
	physBytes := 0
	logical := 0
	stages := 1
	if !sendfile {
		stages = 2
	}
	for _, e := range res.Extents {
		switch {
		case e.Block == nil:
			if zc, err := p.node.BlkPool.GetZeroChain(e.Len); err == nil {
				out.AppendChain(zc)
			} else {
				zb := netbuf.New(0, e.Len)
				_ = zb.Put(e.Len)
				out.Append(zb)
			}

		case e.Block.Logical:
			key, ok := e.Block.Key()
			if !ok {
				key = lkey.Key{}
			}
			if e.Off > 0 {
				key = key.WithSubOff(uint32(e.Off))
			}
			out.AppendChain(lkey.StampChainPool(p.node.BlkPool, key, e.Len))
			logical++

		default:
			// Physical: the daemon-buffer copy and the socket copy
			// both walk the bytes; the pooled-chain build is the second.
			pc, err := p.node.TxPool.GetChain(e.Block.Data[e.Off : e.Off+e.Len])
			if err != nil {
				continue
			}
			out.AppendChain(pc)
			physBytes += e.Len
		}
	}
	if physBytes > 0 {
		p.chargePhysical(stages, physBytes*stages)
	}
	if logical > 0 {
		p.chargeLogical(logical)
	}
	return out
}

// applyWrite routes a WRITE's payload into the file system with the mode's
// data movement; written hears the end. The fillers are the record's own
// (bound once, reading the handle, offset and payload it carries), so a write
// builds no closure here.
func (k *backendCall) applyWrite() {
	srv, data := k.b.srv, k.data
	p, fs := srv.path, srv.FS
	trace.To(p.node.Eng, trace.LFS)
	aligned := k.off%uint64(p.bs) == 0 && k.n%p.bs == 0 && k.n > 0

	switch {
	case p.mode == NCache && aligned:
		// Capture the wire payload into the FHO cache; the file system
		// receives only keys (one logical copy per block).
		k.data = nil
		junk := p.mod.CaptureFHO(k.fh, k.off, data)
		junk.Release()
		p.chargeLogical(k.n / p.bs)
		fs.Write(k.ino, k.off, k.n, k.fillFHO, k.onWritten)

	case p.mode == Baseline:
		// Ideal zero-copy: drop the payload, store junk markers.
		k.data = nil
		data.Release()
		fs.Write(k.ino, k.off, k.n, k.fillJunk, k.onWritten)

	default:
		// Physical path (Original, or unaligned writes in NCache mode):
		// one copy from the wire buffers into the buffer cache
		// (Table 2: "overwritten" = 1). The wire chain is scattered
		// straight into cache blocks — no flattened intermediate — and
		// stays referenced until the last filler has run (written
		// releases it).
		p.chargePhysical(1, k.n)
		fs.Write(k.ino, k.off, k.n, k.fillWire, k.onWritten)
	}
}

func (k *backendCall) stampFHO(b *buffercache.Block, blockOff, count, srcOff int) {
	lkey.Stamp(b.Data, lkey.ForFHO(k.fh, k.off+uint64(srcOff)))
	b.Logical = true
}

func (k *backendCall) stampJunk(b *buffercache.Block, blockOff, count, srcOff int) {
	if blockOff == 0 {
		lkey.Stamp(b.Data, lkey.Key{})
		b.Logical = true
	}
}

func (k *backendCall) copyWire(b *buffercache.Block, blockOff, count, srcOff int) {
	if b.Logical {
		// A partial overwrite of a key-carrying block must materialize
		// the real bytes first.
		k.b.srv.path.materialize(b)
	}
	k.data.GatherRange(srcOff, b.Data[blockOff:blockOff+count])
}

// materialize turns a logical block back into a real one by pulling the
// payload out of the NCache module (charging the copy). On a miss the block
// is zero-filled and counted.
func (p *dataPath) materialize(b *buffercache.Block) {
	key, ok := b.Key()
	if p.mod != nil && ok && key.Flags != 0 {
		if p.mod.Materialize(key, b.Data) {
			b.Logical = false
			p.chargePhysical(1, len(b.Data))
			return
		}
	}
	for i := range b.Data {
		b.Data[i] = 0
	}
	b.Logical = false
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
