package nfs

import (
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/tcp"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/sunrpc"
	"ncache/internal/xdr"
)

// RootFH returns the well-known root directory handle.
func RootFH() FH {
	var fh FH
	fh[0], fh[1], fh[2], fh[3] = 0, 0, 0, 1
	return fh
}

// Client issues NFS calls to one server.
type Client struct {
	rpc *sunrpc.Client
	// stream marks a client dialed over TCP (DialClientStream).
	stream bool
}

// NewClient binds an NFS client on the UDP transport, talking to server.
func NewClient(t *udp.Transport, local eth.Addr, localPort uint16, server eth.Addr) (*Client, error) {
	rpc, err := sunrpc.NewClient(t, local, localPort, server, Port)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rpc}, nil
}

// SetRetransmit enables RPC retransmission on a datagram client (a stream
// client ignores it and relies on TCP recovery).
func (c *Client) SetRetransmit(rto sim.Duration, maxTries int) {
	c.rpc.SetRetransmit(rto, maxTries)
}

// Node returns the client host's node — workloads draw zero-copy write
// payloads from its pools.
func (c *Client) Node() *simnet.Node { return c.rpc.Node() }

// DatagramRPC returns the underlying RPC client of a datagram NFS client, or
// nil for a stream one. Fault tests inspect its retransmission counters.
func (c *Client) DatagramRPC() *sunrpc.Client {
	if c.stream {
		return nil
	}
	return c.rpc
}

// DialClientStream connects an NFS client over TCP (record-marked RPC, the
// paper's transport comparison) and hands it to done once the connection is
// established.
func DialClientStream(t *tcp.Transport, local, server eth.Addr, done func(*Client, error)) {
	sunrpc.DialStream(t, local, server, Port, func(rpc *sunrpc.Client, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(&Client{rpc: rpc, stream: true}, nil)
	})
}

// args starts a call whose XDR argument head is n bytes: the encoder writes
// straight into the pooled buffer the call goes out in.
func (c *Client) args(n int) (*netbuf.Buf, xdr.Encoder) {
	msg, p := sunrpc.CallBuf(c.rpc.Node(), n)
	return msg, xdr.Over(p)
}

// fhArgs starts a call whose arguments are a file handle and extra bytes
// more.
func (c *Client) fhArgs(fh FH, extra int) (*netbuf.Buf, xdr.Encoder) {
	msg, e := c.args(FHLen + extra)
	e.FixedOpaque(fh[:])
	return msg, e
}

// nameArgs starts a call whose arguments are a directory handle and a name.
func (c *Client) nameArgs(dir FH, name string) *netbuf.Buf {
	msg, e := c.fhArgs(dir, 4+(len(name)+3)&^3)
	e.String(name)
	return msg
}

// call issues one NFS RPC.
func (c *Client) call(proc uint32, msg *netbuf.Buf, payload *netbuf.Chain, done func(*netbuf.Chain, error)) {
	err := c.rpc.Call(Prog, Vers, proc, msg, payload, func(r sunrpc.Reply, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		if r.Accept != sunrpc.AcceptSuccess {
			if r.Body != nil {
				r.Body.Release()
			}
			done(nil, &OpError{Status: ErrIO})
			return
		}
		done(r.Body, nil)
	})
	if err != nil {
		done(nil, err)
	}
}

// statusOf pulls the next 32-bit word from a reply body: its leading status,
// or a length or count further in.
func statusOf(body *netbuf.Chain) (uint32, bool) {
	var raw [4]byte
	if err := body.PullHeaderInto(raw[:]); err != nil {
		return ErrIO, false
	}
	return be32(raw[:]), true
}

// attrOf pulls an attribute block.
func attrOf(body *netbuf.Chain) (Attr, bool) {
	var raw [AttrLen]byte
	if err := body.PullHeaderInto(raw[:]); err != nil {
		return Attr{}, false
	}
	return Attr{Type: be32(raw[:]), Links: be32(raw[4:]), Size: be64(raw[8:])}, true
}

// finishStatus releases the body and maps a status to an error.
func finishStatus(body *netbuf.Chain, st uint32, ok bool, done func(error)) {
	body.Release()
	if !ok {
		done(&OpError{Status: ErrIO})
		return
	}
	done(StatusError(st))
}

// Getattr fetches attributes.
func (c *Client) Getattr(fh FH, done func(Attr, error)) {
	msg, _ := c.fhArgs(fh, 0)
	c.call(ProcGetattr, msg, nil, func(body *netbuf.Chain, err error) {
		if err != nil {
			done(Attr{}, err)
			return
		}
		st, ok := statusOf(body)
		if !ok || st != OK {
			body.Release()
			done(Attr{}, orIO(st, ok))
			return
		}
		a, ok := attrOf(body)
		body.Release()
		if !ok {
			done(Attr{}, &OpError{Status: ErrIO})
			return
		}
		done(a, nil)
	})
}

// Setattr sets the file size (truncate).
func (c *Client) Setattr(fh FH, size uint64, done func(Attr, error)) {
	msg, e := c.fhArgs(fh, 8)
	e.Uint64(size)
	c.call(ProcSetattr, msg, nil, func(body *netbuf.Chain, err error) {
		if err != nil {
			done(Attr{}, err)
			return
		}
		st, ok := statusOf(body)
		if !ok || st != OK {
			body.Release()
			done(Attr{}, orIO(st, ok))
			return
		}
		a, ok := attrOf(body)
		body.Release()
		if !ok {
			done(Attr{}, &OpError{Status: ErrIO})
			return
		}
		done(a, nil)
	})
}

// Lookup resolves a name.
func (c *Client) Lookup(dir FH, name string, done func(FH, Attr, error)) {
	c.call(ProcLookup, c.nameArgs(dir, name), nil, func(body *netbuf.Chain, err error) {
		var fh FH
		if err != nil {
			done(fh, Attr{}, err)
			return
		}
		st, ok := statusOf(body)
		if !ok || st != OK {
			body.Release()
			done(fh, Attr{}, orIO(st, ok))
			return
		}
		if err := body.PullHeaderInto(fh[:]); err != nil {
			body.Release()
			done(fh, Attr{}, &OpError{Status: ErrIO})
			return
		}
		a, ok := attrOf(body)
		body.Release()
		if !ok {
			done(fh, Attr{}, &OpError{Status: ErrIO})
			return
		}
		done(fh, a, nil)
	})
}

// Read fetches [off, off+n). The returned chain holds the data portion of
// the reply in its original wire buffers; the caller owns it.
func (c *Client) Read(fh FH, off uint64, n int, done func(*netbuf.Chain, Attr, error)) {
	msg, e := c.fhArgs(fh, 12)
	e.Uint64(off)
	e.Uint32(uint32(n))
	c.call(ProcRead, msg, nil, func(body *netbuf.Chain, err error) {
		if err != nil {
			done(nil, Attr{}, err)
			return
		}
		st, ok := statusOf(body)
		if !ok || st != OK {
			body.Release()
			done(nil, Attr{}, orIO(st, ok))
			return
		}
		a, ok := attrOf(body)
		if !ok {
			body.Release()
			done(nil, Attr{}, &OpError{Status: ErrIO})
			return
		}
		word, ok := statusOf(body)
		if !ok {
			body.Release()
			done(nil, Attr{}, &OpError{Status: ErrIO})
			return
		}
		dlen := int(word)
		if body.Len() < dlen {
			body.Release()
			done(nil, Attr{}, &OpError{Status: ErrIO})
			return
		}
		data, err := body.PullChain(dlen)
		body.Release()
		if err != nil {
			done(nil, Attr{}, &OpError{Status: ErrIO})
			return
		}
		done(data, a, nil)
	})
}

// Write stores a payload chain at off. The client takes ownership of data.
func (c *Client) Write(fh FH, off uint64, data *netbuf.Chain, done func(int, Attr, error)) {
	n := data.Len()
	msg, e := c.fhArgs(fh, 16)
	e.Uint64(off)
	e.Uint32(uint32(n))
	e.Uint32(uint32(n)) // XDR opaque length prefix
	c.call(ProcWrite, msg, data, func(body *netbuf.Chain, err error) {
		if err != nil {
			done(0, Attr{}, err)
			return
		}
		st, ok := statusOf(body)
		if !ok || st != OK {
			body.Release()
			done(0, Attr{}, orIO(st, ok))
			return
		}
		a, ok := attrOf(body)
		if !ok {
			body.Release()
			done(0, Attr{}, &OpError{Status: ErrIO})
			return
		}
		count, ok := statusOf(body)
		body.Release()
		if !ok {
			done(0, Attr{}, &OpError{Status: ErrIO})
			return
		}
		done(int(count), a, nil)
	})
}

// WriteBytes is Write with a plain byte payload (copied into pooled transmit
// buffers).
func (c *Client) WriteBytes(fh FH, off uint64, p []byte, done func(int, Attr, error)) {
	chain, err := c.rpc.Node().TxPool.GetChain(p)
	if err != nil {
		done(0, Attr{}, err)
		return
	}
	c.Write(fh, off, chain, done)
}

// Create makes a file.
func (c *Client) Create(dir FH, name string, done func(FH, Attr, error)) {
	c.call(ProcCreate, c.nameArgs(dir, name), nil, func(body *netbuf.Chain, err error) {
		var fh FH
		if err != nil {
			done(fh, Attr{}, err)
			return
		}
		st, ok := statusOf(body)
		if !ok || st != OK {
			body.Release()
			done(fh, Attr{}, orIO(st, ok))
			return
		}
		if err := body.PullHeaderInto(fh[:]); err != nil {
			body.Release()
			done(fh, Attr{}, &OpError{Status: ErrIO})
			return
		}
		a, ok := attrOf(body)
		body.Release()
		if !ok {
			done(fh, Attr{}, &OpError{Status: ErrIO})
			return
		}
		done(fh, a, nil)
	})
}

// Remove unlinks a file.
func (c *Client) Remove(dir FH, name string, done func(error)) {
	c.call(ProcRemove, c.nameArgs(dir, name), nil, func(body *netbuf.Chain, err error) {
		if err != nil {
			done(err)
			return
		}
		st, ok := statusOf(body)
		finishStatus(body, st, ok, done)
	})
}

// Readdir lists a directory.
func (c *Client) Readdir(dir FH, done func([]string, error)) {
	msg, _ := c.fhArgs(dir, 0)
	c.call(ProcReaddir, msg, nil, func(body *netbuf.Chain, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		st, ok := statusOf(body)
		if !ok || st != OK {
			body.Release()
			done(nil, orIO(st, ok))
			return
		}
		flat := make([]byte, body.Len())
		body.Gather(flat)
		body.Release()
		// Every name is cut out of one string copy of the reply.
		all, d := string(flat), xdr.NewDecoder(flat)
		count, err := d.Uint32()
		if err != nil {
			done(nil, &OpError{Status: ErrIO})
			return
		}
		names := make([]string, 0, count)
		for i := uint32(0); i < count; i++ {
			start := d.Offset() + 4 // past the length word
			p, err := d.Opaque(MaxReadSize)
			if err != nil {
				done(nil, &OpError{Status: ErrIO})
				return
			}
			names = append(names, all[start:start+len(p)])
		}
		done(names, nil)
	})
}

// orIO maps a parse failure or non-OK status to an error.
func orIO(st uint32, ok bool) error {
	if !ok {
		return &OpError{Status: ErrIO}
	}
	return StatusError(st)
}
