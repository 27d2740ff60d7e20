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
// request payload straight from the wire buffers.
type Backend interface {
	Getattr(fh FH, done func(Attr, uint32))
	Setattr(fh FH, size uint64, done func(Attr, uint32))
	Lookup(dir FH, name string, done func(FH, Attr, uint32))
	Read(fh FH, off uint64, n int, done func(*netbuf.Chain, Attr, uint32))
	Write(fh FH, off uint64, data *netbuf.Chain, done func(n int, attr Attr, st uint32))
	Create(dir FH, name string, isDir bool, done func(FH, Attr, uint32))
	Remove(dir FH, name string, done func(uint32))
	Readdir(dir FH, done func([]string, uint32))
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
		ProcNull, ProcGetattr, ProcSetattr, ProcLookup, ProcRead,
		ProcWrite, ProcCreate, ProcRemove, ProcMkdir, ProcRmdir, ProcReaddir,
	} {
		proc := proc
		s.rpc.Register(Prog, Vers, proc, func(c sunrpc.Call) { s.dispatch(proc, c) })
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

// replyStatus sends a bare status reply.
func (s *Server) replyStatus(c sunrpc.Call, st uint32) {
	hb, _ := head(c, 4, st)
	s.send(c, hb, nil)
}

// encodeAttr appends an attribute block.
func encodeAttr(e *xdr.Encoder, a Attr) {
	e.Uint32(a.Type)
	e.Uint32(a.Links)
	e.Uint64(a.Size)
}

// dispatch decodes one call and invokes the backend. Per-operation server
// logic cost is charged here.
func (s *Server) dispatch(proc uint32, c sunrpc.Call) {
	s.Ops[proc]++
	s.node.Reqs.Ops++
	body := c.Body
	fail := func(st uint32) {
		body.Release()
		s.replyStatus(c, st)
	}
	trace.To(s.node.Eng, trace.LServer)
	s.node.Charge(s.node.Cost.NFSOpNs, func() {
		switch proc {
		case ProcNull:
			body.Release()
			hb, _ := c.ReplyBuf(0)
			_ = c.Send(hb, nil)

		case ProcGetattr:
			fh, ok := pullFH(body)
			if !ok {
				fail(ErrIO)
				return
			}
			body.Release()
			s.node.Reqs.MetaOps++
			s.backend.Getattr(fh, func(a Attr, st uint32) {
				s.replyAttr(c, st, a)
			})

		case ProcSetattr:
			var raw [FHLen + 8]byte
			if err := body.PullHeaderInto(raw[:]); err != nil {
				fail(ErrIO)
				return
			}
			var fh FH
			copy(fh[:], raw[:FHLen])
			size := be64(raw[FHLen:])
			body.Release()
			s.node.Reqs.MetaOps++
			s.backend.Setattr(fh, size, func(a Attr, st uint32) {
				s.replyAttr(c, st, a)
			})

		case ProcLookup:
			fh, name, ok := pullFHName(body)
			body.Release()
			if !ok {
				s.replyStatus(c, ErrIO)
				return
			}
			s.node.Reqs.MetaOps++
			s.backend.Lookup(fh, name, func(child FH, a Attr, st uint32) {
				s.replyFHAttr(c, st, child, a)
			})

		case ProcRead:
			var raw [FHLen + 12]byte
			if err := body.PullHeaderInto(raw[:]); err != nil {
				fail(ErrIO)
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
			s.backend.Read(fh, off, n, func(data *netbuf.Chain, a Attr, st uint32) {
				if st != OK {
					if data != nil {
						data.Release()
					}
					s.replyStatus(c, st)
					return
				}
				hb, e := head(c, 4+AttrLen+4, OK)
				encodeAttr(&e, a)
				dlen := 0
				if data != nil {
					dlen = data.Len()
				}
				e.Uint32(uint32(dlen))
				s.node.Reqs.ReadBytes += uint64(dlen)
				// XDR opaque padding (block payloads are 4-aligned).
				if pad := (4 - dlen%4) % 4; pad != 0 && data != nil {
					pb, perr := s.node.TxPool.Get()
					if perr != nil {
						pb = netbuf.New(0, pad)
					}
					_ = pb.Put(pad)
					data.Append(pb)
				}
				s.send(c, hb, data)
			})

		case ProcWrite:
			var raw [FHLen + 16]byte
			if err := body.PullHeaderInto(raw[:]); err != nil {
				fail(ErrIO)
				return
			}
			var fh FH
			copy(fh[:], raw[:FHLen])
			off := be64(raw[FHLen:])
			dlen := int(be32(raw[FHLen+8:]))
			// raw[FHLen+12:] is the XDR opaque length, equal to dlen.
			if body.Len() < dlen {
				fail(ErrIO)
				return
			}
			data, err := body.PullChain(dlen)
			if err != nil {
				fail(ErrIO)
				return
			}
			body.Release()
			s.node.Reqs.WriteOps++
			s.node.Reqs.WriteBytes += uint64(dlen)
			s.backend.Write(fh, off, data, func(n int, a Attr, st uint32) {
				if st != OK {
					s.replyStatus(c, st)
					return
				}
				hb, e := head(c, 4+AttrLen+4, OK)
				encodeAttr(&e, a)
				e.Uint32(uint32(n))
				s.send(c, hb, nil)
			})

		case ProcCreate, ProcMkdir:
			fh, name, ok := pullFHName(body)
			body.Release()
			if !ok {
				s.replyStatus(c, ErrIO)
				return
			}
			s.node.Reqs.MetaOps++
			s.backend.Create(fh, name, proc == ProcMkdir, func(child FH, a Attr, st uint32) {
				s.replyFHAttr(c, st, child, a)
			})

		case ProcRemove, ProcRmdir:
			fh, name, ok := pullFHName(body)
			body.Release()
			if !ok {
				s.replyStatus(c, ErrIO)
				return
			}
			s.node.Reqs.MetaOps++
			s.backend.Remove(fh, name, func(st uint32) {
				s.replyStatus(c, st)
			})

		case ProcReaddir:
			fh, ok := pullFH(body)
			body.Release()
			if !ok {
				s.replyStatus(c, ErrIO)
				return
			}
			s.node.Reqs.MetaOps++
			s.backend.Readdir(fh, func(names []string, st uint32) {
				if st != OK {
					s.replyStatus(c, st)
					return
				}
				size := 8
				for _, n := range names {
					size += 4 + (len(n)+3)&^3
				}
				hb, e := head(c, size, OK)
				e.Uint32(uint32(len(names)))
				for _, n := range names {
					e.String(n)
				}
				s.send(c, hb, nil)
			})

		default:
			fail(ErrIO)
		}
	})
}

// replyAttr sends status+attr.
func (s *Server) replyAttr(c sunrpc.Call, st uint32, a Attr) {
	if st != OK {
		s.replyStatus(c, st)
		return
	}
	hb, e := head(c, 4+AttrLen, OK)
	encodeAttr(&e, a)
	s.send(c, hb, nil)
}

// replyFHAttr sends status+fh+attr.
func (s *Server) replyFHAttr(c sunrpc.Call, st uint32, fh FH, a Attr) {
	if st != OK {
		s.replyStatus(c, st)
		return
	}
	hb, e := head(c, 4+FHLen+AttrLen, OK)
	e.FixedOpaque(fh[:])
	encodeAttr(&e, a)
	s.send(c, hb, nil)
}

// pullFH extracts a file handle from the argument chain.
func pullFH(body *netbuf.Chain) (FH, bool) {
	var fh FH
	ok := body.PullHeaderInto(fh[:]) == nil
	return fh, ok
}

// pullFHName extracts fh + XDR string arguments.
func pullFHName(body *netbuf.Chain) (FH, string, bool) {
	fh, ok := pullFH(body)
	if !ok {
		return fh, "", false
	}
	var lraw [4]byte
	if body.PullHeaderInto(lraw[:]) != nil {
		return fh, "", false
	}
	n := int(be32(lraw[:]))
	padded := n + (4-n%4)%4
	if n < 0 || body.Len() < padded {
		return fh, "", false
	}
	// Names are short: a stack array holds all but the pathological ones.
	var short [64]byte
	raw := short[:]
	if padded > len(raw) {
		raw = make([]byte, padded)
	}
	if body.PullHeaderInto(raw[:padded]) != nil {
		return fh, "", false
	}
	return fh, string(raw[:n]), true
}

// be32/be64 decode big-endian integers.
func be32(p []byte) uint32 {
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}

func be64(p []byte) uint64 {
	return uint64(be32(p))<<32 | uint64(be32(p[4:]))
}
