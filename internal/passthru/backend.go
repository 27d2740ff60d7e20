package passthru

import (
	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/trace"
	"ncache/internal/wal"
)

// fsBackend implements the NFS backend over the mounted file system with
// the mode's data path.
type fsBackend struct {
	srv *AppServer
	// calls is the free list of operation records (see backendCall).
	calls netbuf.FreeList[backendCall]
}

var _ nfs.Backend = (*fsBackend)(nil)

// backendCall is the recycled record of one NFS operation inside the daemon:
// the protocol server's completion and whatever of the arguments outlives the
// first file-system call, with the continuations handed to the file system,
// the cache's admission gate and the journal bound once, when the record is
// first allocated. proc says which operation it is, and so what each shared
// continuation does next and which completion hears the end.
//
// A record never leaves its backend and retires before the protocol server's
// completion runs. An operation a crash overtakes ends at one of the `if
// srv.crashed { return }` below without retiring: its record goes to the
// collector and is never handed out again, so a completion that still fires
// for it cannot reach another operation. In netbuf debug mode a retired record
// is poisoned and abandoned, and a second retire panics.
type backendCall struct {
	b    *fsBackend
	dead bool // retired in debug mode
	backendOp

	onAttr      func(extfs.Attr, error)
	onErr       func(error)
	onIno       func(uint32, error)
	onRead      func(*extfs.ReadResult, error)
	onEnts      func([]extfs.Dirent, error)
	onWritten   func(error)
	onLBNs      func([]int64, error)
	onAdmit     func()
	onCancel    func()
	onCommitted func()
	fillFHO     extfs.Filler
	fillJunk    extfs.Filler
	fillWire    extfs.Filler
}

// backendOp is the part of a record that belongs to the operation it serves,
// blanked when the record retires.
type backendOp struct {
	proc uint32
	fh   nfs.FH
	ino  uint32
	off  uint64
	// A WRITE: its length, its wire payload while a filler still reads it,
	// its journal record on the write-back path, and whether the ack waits
	// for a cache flush.
	n    int
	data *netbuf.Chain
	rec  *wal.Record
	sync bool

	doneAttr   func(nfs.Attr, uint32)
	doneFH     func(nfs.FH, nfs.Attr, uint32)
	doneRead   func(*netbuf.Chain, nfs.Attr, uint32)
	doneWrite  func(int, nfs.Attr, uint32)
	doneStatus func(uint32)
	doneNames  func([]string, uint32)
}

// call takes a blank record off the free list.
func (b *fsBackend) call(proc uint32) *backendCall {
	k := b.calls.Take()
	if k == nil {
		k = &backendCall{b: b}
		k.onAttr, k.onErr, k.onIno, k.onRead, k.onEnts = k.gotAttr, k.gotErr, k.gotIno, k.gotRead, k.gotEnts
		k.onWritten, k.onLBNs = k.written, k.mapped
		k.onAdmit, k.onCancel, k.onCommitted = k.admitted, k.cancelled, k.committed
		k.fillFHO, k.fillJunk, k.fillWire = k.stampFHO, k.stampJunk, k.copyWire
	}
	k.proc = proc
	return k
}

// retire ends the operation: the record goes back on the free list, and the
// caller tells the protocol server from the copy it is handed.
func (k *backendCall) retire() backendOp {
	if k.dead {
		panic("passthru: backend call record retired twice")
	}
	op := k.backendOp
	k.backendOp = backendOp{}
	k.dead = !k.b.calls.Put(k)
	return op
}

// fail ends the operation with the status err maps to.
func (k *backendCall) fail(err error) {
	op, st := k.retire(), mapErr(err)
	switch op.proc {
	case nfs.ProcGetattr, nfs.ProcSetattr:
		op.doneAttr(nfs.Attr{}, st)
	case nfs.ProcLookup, nfs.ProcCreate:
		op.doneFH(nfs.FH{}, nfs.Attr{}, st)
	case nfs.ProcRead:
		op.doneRead(nil, nfs.Attr{}, st)
	case nfs.ProcWrite:
		op.doneWrite(0, nfs.Attr{}, st)
	case nfs.ProcRemove:
		op.doneStatus(st)
	case nfs.ProcReaddir:
		op.doneNames(nil, st)
	}
}

// gotAttr is the last step of every operation that answers with attributes.
func (k *backendCall) gotAttr(a extfs.Attr, err error) {
	if err != nil {
		k.fail(err)
		return
	}
	op, attr := k.retire(), attrOf(a)
	switch op.proc {
	case nfs.ProcGetattr, nfs.ProcSetattr:
		op.doneAttr(attr, nfs.OK)
	case nfs.ProcLookup, nfs.ProcCreate:
		op.doneFH(inoFH(op.ino), attr, nfs.OK)
	case nfs.ProcWrite:
		op.doneWrite(op.n, attr, nfs.OK)
	}
}

// gotErr continues after a Truncate (SETATTR), a cache flush (a WRITE that
// syncs before its ack) or a Remove.
func (k *backendCall) gotErr(err error) {
	srv := k.b.srv
	if k.proc == nfs.ProcRemove {
		k.retire().doneStatus(mapErr(err))
		return
	}
	if k.proc == nfs.ProcWrite && srv.crashed {
		return
	}
	if err != nil {
		k.fail(err)
		return
	}
	if srv.crashed {
		return
	}
	srv.FS.Getattr(k.ino, k.onAttr)
}

// gotIno continues a LOOKUP or CREATE with the child's attributes.
func (k *backendCall) gotIno(ino uint32, err error) {
	if err != nil {
		k.fail(err)
		return
	}
	k.ino = ino
	if k.proc == nfs.ProcCreate && k.b.srv.crashed {
		return
	}
	k.b.srv.FS.Getattr(ino, k.onAttr)
}

func (b *fsBackend) Getattr(fh nfs.FH, done func(nfs.Attr, uint32)) {
	if b.srv.crashed {
		return
	}
	k := b.call(nfs.ProcGetattr)
	k.doneAttr = done
	b.srv.FS.Getattr(fhIno(fh), k.onAttr)
}

func (b *fsBackend) Setattr(fh nfs.FH, size uint64, done func(nfs.Attr, uint32)) {
	if b.srv.crashed {
		return
	}
	k := b.call(nfs.ProcSetattr)
	k.ino, k.doneAttr = fhIno(fh), done
	b.srv.FS.Truncate(k.ino, size, k.onErr)
}

func (b *fsBackend) Lookup(dir nfs.FH, name string, done func(nfs.FH, nfs.Attr, uint32)) {
	if b.srv.crashed {
		return
	}
	k := b.call(nfs.ProcLookup)
	k.doneFH = done
	b.srv.FS.Lookup(fhIno(dir), name, k.onIno)
}

func (b *fsBackend) Create(dir nfs.FH, name string, isDir bool, done func(nfs.FH, nfs.Attr, uint32)) {
	if b.srv.crashed {
		return
	}
	mode := extfs.ModeFile
	if isDir {
		mode = extfs.ModeDir
	}
	k := b.call(nfs.ProcCreate)
	k.doneFH = done
	b.srv.FS.Create(fhIno(dir), name, mode, k.onIno)
}

func (b *fsBackend) Remove(dir nfs.FH, name string, done func(uint32)) {
	if b.srv.crashed {
		return
	}
	k := b.call(nfs.ProcRemove)
	k.doneStatus = done
	b.srv.FS.Remove(fhIno(dir), name, k.onErr)
}

func (b *fsBackend) Readdir(dir nfs.FH, done func([]string, uint32)) {
	if b.srv.crashed {
		return
	}
	k := b.call(nfs.ProcReaddir)
	k.doneNames = done
	b.srv.FS.Readdir(fhIno(dir), k.onEnts)
}

func (k *backendCall) gotEnts(ents []extfs.Dirent, err error) {
	if err != nil {
		k.fail(err)
		return
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	k.retire().doneNames(names, nfs.OK)
}

func (b *fsBackend) Read(fh nfs.FH, off uint64, n int, done func(*netbuf.Chain, nfs.Attr, uint32)) {
	srv := b.srv
	if srv.crashed {
		return
	}
	trace.To(srv.Node.Eng, trace.LFS)
	k := b.call(nfs.ProcRead)
	k.doneRead = done
	srv.FS.Read(fhIno(fh), off, n, k.onRead)
}

func (k *backendCall) gotRead(res *extfs.ReadResult, err error) {
	srv := k.b.srv
	if srv.crashed {
		if res != nil {
			res.Done(srv.FS)
		}
		return
	}
	if err != nil {
		k.fail(err)
		return
	}
	// Back in the daemon: compose and transmit the reply.
	trace.To(srv.Node.Eng, trace.LServer)
	chain, attr := srv.replyChain(res, false), attrOf(res.Attr)
	res.Done(srv.FS)
	k.retire().doneRead(chain, attr, nfs.OK)
}

// Write applies a WRITE by one of three routes, which differ in what stands
// between the data reaching the cache and the ack: nothing (the classic
// path), a cache flush (the write-through comparison arm: equal durability
// through the same batching flusher), or the journal's group commit.
func (b *fsBackend) Write(fh nfs.FH, off uint64, data *netbuf.Chain, done func(int, nfs.Attr, uint32)) {
	srv := b.srv
	if srv.crashed {
		data.Release()
		return
	}
	k := b.call(nfs.ProcWrite)
	k.fh, k.ino, k.off, k.n, k.data, k.doneWrite = fh, fhIno(fh), off, data.Len(), data, done
	switch wb := srv.cfg.Writeback; {
	case srv.WAL != nil:
		k.writeJournaled()
	case wb.Enabled && wb.WriteThrough:
		k.sync = true
		k.applyWrite()
	default:
		k.applyWrite()
	}
}

// writeJournaled is the write-back pipeline's WRITE path: the payload is
// copied into a WAL record (its checksum and resolved LBN list alongside),
// applied to the cache as dirty blocks, and acknowledged only when the log's
// group commit lands — the data itself flushes to storage later, in
// coalesced batches. Admission is gated by the cache's dirty-memory
// watermarks, so a flooded flusher backpressures the NFS path here.
// Unaligned writes (never issued by the block-aligned workloads; the WAL is
// a logical redo log over whole blocks) fall back to apply+sync before the
// ack — equal durability, no journal entry.
func (k *backendCall) writeJournaled() {
	bs := extfs.BlockSize
	if k.off%uint64(bs) != 0 || k.n%bs != 0 || k.n == 0 {
		k.sync = true
		k.applyWrite()
		return
	}
	k.b.srv.Cache.Admit(k.onAdmit, k.onCancel)
}

// admitted runs once the dirty-memory gate lets the WRITE through.
func (k *backendCall) admitted() {
	srv := k.b.srv
	if srv.crashed {
		k.data.Release()
		return
	}
	// Capture the payload for the journal before applyWrite consumes the
	// chain (NCache mode keeps only logical keys in the cache).
	k.rec = srv.WAL.NewRecord(k.n)
	k.data.GatherRange(0, k.rec.Data)
	k.applyWrite()
}

// cancelled runs instead of admitted when a crash empties the gate's queue.
func (k *backendCall) cancelled() { k.data.Release() }

// written continues a WRITE once the file system has taken the data.
func (k *backendCall) written(err error) {
	if k.data != nil {
		// The physical path kept the wire chain for its fillers.
		k.data.Release()
		k.data = nil
	}
	srv := k.b.srv
	trace.To(srv.Node.Eng, trace.LServer)
	if srv.crashed {
		return
	}
	switch {
	case err != nil:
		k.fail(err)
	case k.rec != nil:
		srv.FS.Map(k.ino, k.off, k.n, k.onLBNs)
	case k.sync:
		srv.FS.Sync(k.onErr)
	default:
		srv.FS.Getattr(k.ino, k.onAttr)
	}
}

// mapped journals a write-back WRITE under the blocks it landed in; the ack
// waits for the group commit.
func (k *backendCall) mapped(lbns []int64, err error) {
	srv, rec := k.b.srv, k.rec
	if srv.crashed {
		return
	}
	if err != nil {
		k.fail(err)
		return
	}
	rec.Ino, rec.Off = k.ino, k.off
	// lbns is Map's own array: the record keeps a copy.
	rec.Sum, rec.LBNs = netbuf.Sum(rec.Data), append(rec.LBNs[:0], lbns...)
	srv.WAL.Append(rec, k.onCommitted)
}

// committed refreshes the post-write attributes and acks the WRITE.
func (k *backendCall) committed() {
	if k.b.srv.crashed {
		return
	}
	k.b.srv.FS.Getattr(k.ino, k.onAttr)
}
