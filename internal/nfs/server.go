package nfs

import (
	"ncache/internal/netbuf"
	"ncache/internal/proto/tcp"
	"ncache/internal/proto/udp"
	"ncache/internal/simnet"
	"ncache/internal/sunrpc"
	"ncache/internal/trace"
	"ncache/internal/xdr"
)

// Backend is the file service behind the protocol server. Payload chains
// flow through untouched: Read produces the reply payload (real bytes,
// logical keys, or baseline junk — the backend decides), Write consumes the
// request payload straight from the wire buffers. A name argument is a view
// into the server's call record, valid only during the call it is passed
// to; a listing is the backend's, valid only during done.
type Backend interface {
	Getattr(fh FH, done func(Attr, uint32))
	Lookup(dir FH, name []byte, done func(FH, Attr, uint32))
	Read(fh FH, off uint64, n int, done func(*netbuf.Chain, Attr, uint32))
	Write(fh FH, off uint64, data *netbuf.Chain, done func(n int, attr Attr, st uint32))
	Create(dir FH, name []byte, isDir bool, done func(FH, Attr, uint32))
	Remove(dir FH, name []byte, done func(uint32))
	Readdir(dir FH, done func(Names, uint32))
}

// Names is a directory listing as a backend lends it to the reply encoder.
type Names interface {
	Len() int
	Name(i int) []byte
}

// TxFilter rewrites a fully composed reply payload just before it enters
// the socket — the hook the NCache module substitutes cached data through.
type TxFilter func(*netbuf.Chain) *netbuf.Chain

// Server frames NFS requests and replies over an RPC server.
type Server struct {
	backend Backend
	node    *simnet.Node
	rpc     *sunrpc.Server
	filter  TxFilter
	// calls is the free list of call records (see serverCall).
	calls netbuf.FreeList[*serverCall]

	// Ops counts served calls by procedure.
	Ops map[uint32]uint64
}

// NewServer creates the protocol server and registers the NFS program's
// procedures on its RPC server. It serves nothing until put on a transport;
// a single server (and its single tx filter) can face both at once.
func NewServer(node *simnet.Node, backend Backend) *Server {
	s := &Server{
		backend: backend,
		node:    node,
		rpc:     sunrpc.NewServer(node),
		Ops:     make(map[uint32]uint64),
	}
	for _, proc := range []uint32{
		ProcNull, ProcGetattr, ProcLookup, ProcRead,
		ProcWrite, ProcCreate, ProcRemove, ProcMkdir, ProcRmdir, ProcReaddir,
	} {
		s.rpc.Register(Prog, Vers, proc, s.dispatch)
	}
	return s
}

// ServeUDP serves datagram RPC on t at the NFS port (the paper's NFS
// transport).
func (s *Server) ServeUDP(t *udp.Transport) error { return s.rpc.ServeUDP(t, Port) }

// ServeStream serves record-marked RPC connections on t at the NFS port —
// the transport-comparison extension (§5.5 notes TCP's higher per-packet
// overhead; this lets the same service run both ways).
func (s *Server) ServeStream(t *tcp.Transport) error { return s.rpc.ServeStream(t, Port) }

// SetTxFilter installs the reply-payload hook.
func (s *Server) SetTxFilter(f TxFilter) { s.filter = f }

// head starts a reply whose XDR result head is n bytes, the status word
// first: the encoder writes straight into the pooled buffer the reply goes
// out in.
func head(c sunrpc.Call, n int, st uint32) (*netbuf.Buf, xdr.Encoder) {
	hb, p := c.ReplyBuf(n)
	e := xdr.Over(p)
	e.Uint32(st)
	return hb, e
}

// send transmits a reply begun with head, its payload through the tx filter.
func (s *Server) send(c sunrpc.Call, hb *netbuf.Buf, payload *netbuf.Chain) {
	if s.filter != nil && payload != nil {
		payload = s.filter(payload)
	}
	_ = c.Send(hb, payload)
}

// encodeAttr appends an attribute block.
func encodeAttr(e *xdr.Encoder, a Attr) {
	e.Uint32(a.Type)
	e.Uint32(a.Links)
	e.Uint64(a.Size)
}

// serverCall is the recycled record of one NFS call on the server: the RPC
// call (by value: where the reply goes), its argument body and the name
// argument of a LOOKUP, CREATE or REMOVE, with the
// continuations the CPU charge and the backend are handed — run and one per
// result shape — bound once, when the record is first allocated. It never
// leaves its Server and retires where the reply is handed to the RPC layer.
// A call a kill overtakes never retires: the Server died with the process.
// A backend that calls done twice fails at the second retire instead of
// answering another call.
type serverCall struct {
	netbuf.Recycled
	s    *Server
	c    sunrpc.Call
	body *netbuf.Chain
	name [MaxNameLen + 1]byte // room for the XDR padding of the longest name

	run      func()
	onAttr   func(Attr, uint32)
	onFHAttr func(FH, Attr, uint32)
	onRead   func(*netbuf.Chain, Attr, uint32)
	onWrite  func(int, Attr, uint32)
	onStatus func(uint32)
	onNames  func(Names, uint32)
}

// call takes a blank record off the free list.
func (s *Server) call() *serverCall {
	if k := s.calls.Take(); k != nil {
		return k
	}
	k := &serverCall{s: s}
	k.run = k.serve
	k.onAttr, k.onFHAttr, k.onRead = k.replyAttr, k.replyFHAttr, k.replyRead
	k.onWrite, k.onStatus, k.onNames = k.replyWrite, k.replyStatus, k.replyNames
	return k
}

// retire ends the record's call and returns where its reply goes.
func (k *serverCall) retire() sunrpc.Call {
	c := k.c
	k.c, k.body = sunrpc.Call{}, nil
	k.s.calls.Put(k)
	return c
}

// dispatch takes one call in. Per-operation server logic cost is charged
// here; serve decodes the arguments and invokes the backend after it.
func (s *Server) dispatch(c sunrpc.Call) {
	s.Ops[c.Proc]++
	s.node.Reqs.Ops++
	k := s.call()
	k.c, k.body = c, c.Body
	trace.To(s.node.Eng, trace.LServer)
	s.node.Charge(s.node.Cost.NFSOpNs, k.run)
}

// fail answers a call whose arguments did not parse.
func (k *serverCall) fail(st uint32) {
	k.body.Release()
	k.replyStatus(st)
}

// serve decodes the arguments and hands the call to the backend. The RPC
// layer refuses every procedure NewServer did not register.
func (k *serverCall) serve() {
	s, body := k.s, k.body
	switch proc := k.c.Proc; proc {
	case ProcNull:
		body.Release()
		c := k.retire()
		hb, _ := c.ReplyBuf(0)
		_ = c.Send(hb, nil)

	case ProcGetattr:
		fh, ok := pullFH(body)
		if !ok {
			k.fail(ErrIO)
			return
		}
		body.Release()
		s.node.Reqs.MetaOps++
		s.backend.Getattr(fh, k.onAttr)

	case ProcLookup:
		fh, name, st := k.pullFHName()
		body.Release()
		if st != OK {
			k.replyStatus(st)
			return
		}
		s.node.Reqs.MetaOps++
		s.backend.Lookup(fh, name, k.onFHAttr)

	case ProcRead:
		var raw [FHLen + 12]byte
		if err := body.PullHeaderInto(raw[:]); err != nil {
			k.fail(ErrIO)
			return
		}
		var fh FH
		copy(fh[:], raw[:FHLen])
		off := be64(raw[FHLen:])
		n := int(be32(raw[FHLen+8:]))
		body.Release()
		if n > MaxReadSize {
			n = MaxReadSize
		}
		s.node.Reqs.ReadOps++
		s.backend.Read(fh, off, n, k.onRead)

	case ProcWrite:
		var raw [FHLen + 16]byte
		if err := body.PullHeaderInto(raw[:]); err != nil {
			k.fail(ErrIO)
			return
		}
		var fh FH
		copy(fh[:], raw[:FHLen])
		off := be64(raw[FHLen:])
		dlen := int(be32(raw[FHLen+8:]))
		// raw[FHLen+12:] is the XDR opaque length, equal to dlen.
		if body.Len() < dlen {
			k.fail(ErrIO)
			return
		}
		data, _ := body.PullChain(dlen) // in range: checked above
		body.Release()
		s.node.Reqs.WriteOps++
		s.backend.Write(fh, off, data, k.onWrite)

	case ProcCreate, ProcMkdir:
		fh, name, st := k.pullFHName()
		body.Release()
		if st != OK {
			k.replyStatus(st)
			return
		}
		s.node.Reqs.MetaOps++
		s.backend.Create(fh, name, proc == ProcMkdir, k.onFHAttr)

	case ProcRemove, ProcRmdir:
		fh, name, st := k.pullFHName()
		body.Release()
		if st != OK {
			k.replyStatus(st)
			return
		}
		s.node.Reqs.MetaOps++
		s.backend.Remove(fh, name, k.onStatus)

	case ProcReaddir:
		fh, ok := pullFH(body)
		body.Release()
		if !ok {
			k.replyStatus(ErrIO)
			return
		}
		s.node.Reqs.MetaOps++
		s.backend.Readdir(fh, k.onNames)
	}
}

// replyStatus sends a bare status reply.
func (k *serverCall) replyStatus(st uint32) {
	s, c := k.s, k.retire()
	hb, _ := head(c, 4, st)
	s.send(c, hb, nil)
}

// replyAttr sends status+attr.
func (k *serverCall) replyAttr(a Attr, st uint32) {
	if st != OK {
		k.replyStatus(st)
		return
	}
	s, c := k.s, k.retire()
	hb, e := head(c, 4+AttrLen, OK)
	encodeAttr(&e, a)
	s.send(c, hb, nil)
}

// replyFHAttr sends status+fh+attr.
func (k *serverCall) replyFHAttr(fh FH, a Attr, st uint32) {
	if st != OK {
		k.replyStatus(st)
		return
	}
	s, c := k.s, k.retire()
	hb, e := head(c, 4+FHLen+AttrLen, OK)
	e.FixedOpaque(fh[:])
	encodeAttr(&e, a)
	s.send(c, hb, nil)
}

// replyRead sends status+attr+counted data, the payload by reference.
func (k *serverCall) replyRead(data *netbuf.Chain, a Attr, st uint32) {
	if st != OK {
		data.Release()
		k.replyStatus(st)
		return
	}
	s, c := k.s, k.retire()
	hb, e := head(c, 4+AttrLen+4, OK)
	encodeAttr(&e, a)
	dlen := 0
	if data != nil {
		dlen = data.Len()
	}
	e.Uint32(uint32(dlen))
	// XDR opaque padding (block payloads are 4-aligned).
	if pad := (4 - dlen%4) % 4; pad != 0 && data != nil {
		data.Append(s.node.HdrPool.GetSized(pad, 0))
	}
	s.send(c, hb, data)
}

// replyWrite sends status+attr+count.
func (k *serverCall) replyWrite(n int, a Attr, st uint32) {
	if st != OK {
		k.replyStatus(st)
		return
	}
	s, c := k.s, k.retire()
	hb, e := head(c, 4+AttrLen+4, OK)
	encodeAttr(&e, a)
	e.Uint32(uint32(n))
	s.send(c, hb, nil)
}

// replyNames sends status+name list. The names follow the head in pooled
// transmit buffers, each holding whole entries, as the reply's payload: the
// listing is not a cached payload, so it skips the tx filter.
func (k *serverCall) replyNames(names Names, st uint32) {
	if st != OK {
		k.replyStatus(st)
		return
	}
	s, c := k.s, k.retire()
	hb, e := head(c, 8, OK)
	e.Uint32(uint32(names.Len()))
	list, b := s.node.TxPool.NewChain(0), s.node.TxPool.Get()
	for i := 0; i < names.Len(); i++ {
		n := names.Name(i)
		size := 4 + (len(n)+3)&^3
		if b.Tailroom() < size {
			list.Append(b)
			b = s.node.TxPool.Get()
		}
		at := b.Len()
		_ = b.Put(size) // a pooled buffer holds any one name
		e := xdr.Over(b.Bytes()[at:])
		e.Uint32(uint32(len(n)))
		e.FixedOpaque(n)
	}
	list.Append(b)
	_ = c.Send(hb, list)
}

// pullFH extracts a file handle from the argument chain.
func pullFH(body *netbuf.Chain) (FH, bool) {
	var fh FH
	ok := body.PullHeaderInto(fh[:]) == nil
	return fh, ok
}

// pullFHName extracts fh + XDR string arguments, the name into the record:
// the name returned is a view into it. A name longer than MaxNameLen is
// refused with ErrNameLong.
func (k *serverCall) pullFHName() (FH, []byte, uint32) {
	body := k.body
	fh, ok := pullFH(body)
	if !ok {
		return fh, nil, ErrIO
	}
	var lraw [4]byte
	if body.PullHeaderInto(lraw[:]) != nil {
		return fh, nil, ErrIO
	}
	n := int(be32(lraw[:]))
	padded := n + (4-n%4)%4
	if body.Len() < padded {
		return fh, nil, ErrIO
	}
	if n > MaxNameLen {
		return fh, nil, ErrNameLong
	}
	_ = body.PullHeaderInto(k.name[:padded]) // in range: checked above
	return fh, k.name[:n], OK
}

// be32/be64 decode big-endian integers.
func be32(p []byte) uint32 {
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}

func be64(p []byte) uint64 {
	return uint64(be32(p))<<32 | uint64(be32(p[4:]))
}
