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
	// calls is the free list of call records (see clientCall).
	calls netbuf.FreeList[*clientCall]
	// flat and names are the last READDIR's reply, gathered, and listing
	// (see namesResult).
	flat  []byte
	names []string
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

// replyKind says which result a call's reply carries, and so which of the
// record's completions hears it.
type replyKind uint8

const (
	replyAttr   replyKind = iota // status + attr: GETATTR
	replyFH                      // status + fh + attr: LOOKUP, CREATE
	replyRead                    // status + attr + counted data
	replyWrite                   // status + attr + count
	replyStatus                  // status alone: REMOVE
	replyNames                   // status + name list: READDIR
)

// clientCall is the recycled record of one NFS call: the reply kind and the
// caller's typed completion, with onReply — what the RPC layer calls — bound
// once, when the record is first allocated. It never leaves its Client and
// retires before the caller's completion runs (a closed-loop caller issues its
// next call from inside it, and that call takes this record): onReply copies
// the record out first.
type clientCall struct {
	netbuf.Recycled
	c    *Client
	kind replyKind

	doneAttr   func(Attr, error)
	doneFH     func(FH, Attr, error)
	doneRead   func(*netbuf.Chain, Attr, error)
	doneWrite  func(int, Attr, error)
	doneStatus func(error)
	doneNames  func([]string, error)

	onReply func(sunrpc.Reply, error)
}

// newCall takes a blank record off the free list.
func (c *Client) newCall(kind replyKind) *clientCall {
	k := c.calls.Take()
	if k == nil {
		k = &clientCall{c: c}
		k.onReply = k.reply
	}
	k.kind = kind
	return k
}

func (k *clientCall) retire() {
	*k = clientCall{Recycled: k.Recycled, c: k.c, onReply: k.onReply}
	k.c.calls.Put(k)
}

// call issues one NFS RPC; the record's completion hears the outcome.
func (k *clientCall) call(proc uint32, msg *netbuf.Buf, payload *netbuf.Chain) {
	if err := k.c.rpc.Call(Prog, Vers, proc, msg, payload, k.onReply); err != nil {
		k.reply(sunrpc.Reply{}, err)
	}
}

// reply ends the call: it retires the record, maps an RPC-level failure to
// an error, decodes the result the kind names and tells the caller.
func (k *clientCall) reply(r sunrpc.Reply, err error) {
	op := *k
	k.retire()
	body := r.Body
	if err == nil && r.Accept != sunrpc.AcceptSuccess {
		body.Release()
		err = &OpError{Status: ErrIO}
	}
	if err == nil {
		if st, ok := statusOf(body); !ok || st != OK {
			body.Release()
			err = orIO(st, ok)
		}
	}
	var (
		a  Attr
		fh FH
	)
	switch op.kind {
	case replyAttr:
		if err == nil {
			a, err = attrOnly(body)
		}
		op.doneAttr(a, err)
	case replyFH:
		if err == nil {
			if body.PullHeaderInto(fh[:]) != nil {
				body.Release()
				fh, err = FH{}, &OpError{Status: ErrIO}
			} else {
				a, err = attrOnly(body)
			}
		}
		op.doneFH(fh, a, err)
	case replyRead:
		var data *netbuf.Chain
		if err == nil {
			data, a, err = readResult(body)
		}
		op.doneRead(data, a, err)
	case replyWrite:
		var n int
		if err == nil {
			n, a, err = writeResult(body)
		}
		op.doneWrite(n, a, err)
	case replyStatus:
		if err == nil {
			body.Release()
		}
		op.doneStatus(err)
	case replyNames:
		var names []string
		if err == nil {
			names, err = op.c.namesResult(body)
		}
		op.doneNames(names, err)
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

// attrOnly decodes a result that ends in an attribute block, consuming body.
func attrOnly(body *netbuf.Chain) (Attr, error) {
	a, ok := attrOf(body)
	body.Release()
	if !ok {
		return Attr{}, &OpError{Status: ErrIO}
	}
	return a, nil
}

// readResult decodes a READ result past its status, consuming body: the
// returned chain holds the data portion in its original wire buffers.
func readResult(body *netbuf.Chain) (*netbuf.Chain, Attr, error) {
	a, ok := attrOf(body)
	if ok {
		var word uint32
		if word, ok = statusOf(body); ok && body.Len() >= int(word) {
			data, _ := body.PullChain(int(word)) // in range: checked above
			body.Release()
			return data, a, nil
		}
	}
	body.Release()
	return nil, Attr{}, &OpError{Status: ErrIO}
}

// writeResult decodes a WRITE result past its status, consuming body.
func writeResult(body *netbuf.Chain) (int, Attr, error) {
	a, ok := attrOf(body)
	if ok {
		var count uint32
		if count, ok = statusOf(body); ok {
			body.Release()
			return int(count), a, nil
		}
	}
	body.Release()
	return 0, Attr{}, &OpError{Status: ErrIO}
}

// namesResult decodes a READDIR result past its status, consuming body,
// into the client's listing. A name equal to the one at its index in the
// previous listing keeps that string; the others are cut from one string
// copy of the reply, made only if some name is new.
func (c *Client) namesResult(body *netbuf.Chain) ([]string, error) {
	n := body.Len()
	if cap(c.flat) < n {
		c.flat = make([]byte, n)
	}
	flat := c.flat[:n]
	body.Gather(flat)
	body.Release()
	d := xdr.NewDecoder(flat)
	count, err := d.Uint32()
	if err != nil {
		return nil, &OpError{Status: ErrIO}
	}
	// prev and names share one array: entry i of prev is read before the
	// append overwrites it.
	prev, names := c.names, c.names[:0]
	all := "" // the reply as a string, once a new name needs it
	for i := 0; i < int(count); i++ {
		start := d.Offset() + 4 // past the length word
		p, err := d.Opaque(MaxReadSize)
		if err != nil {
			return nil, &OpError{Status: ErrIO}
		}
		if i < len(prev) && prev[i] == string(p) {
			names = append(names, prev[i])
			continue
		}
		if all == "" {
			all = string(flat)
		}
		names = append(names, all[start:start+len(p)])
	}
	c.names = names
	return names, nil
}

// Getattr fetches attributes.
func (c *Client) Getattr(fh FH, done func(Attr, error)) {
	msg, _ := c.fhArgs(fh, 0)
	k := c.newCall(replyAttr)
	k.doneAttr = done
	k.call(ProcGetattr, msg, nil)
}

// Lookup resolves a name.
func (c *Client) Lookup(dir FH, name string, done func(FH, Attr, error)) {
	k := c.newCall(replyFH)
	k.doneFH = done
	k.call(ProcLookup, c.nameArgs(dir, name), nil)
}

// Read fetches [off, off+n). The returned chain holds the data portion of
// the reply in its original wire buffers; the caller owns it.
func (c *Client) Read(fh FH, off uint64, n int, done func(*netbuf.Chain, Attr, error)) {
	msg, e := c.fhArgs(fh, 12)
	e.Uint64(off)
	e.Uint32(uint32(n))
	k := c.newCall(replyRead)
	k.doneRead = done
	k.call(ProcRead, msg, nil)
}

// Write stores a payload chain at off. The client takes ownership of data.
func (c *Client) Write(fh FH, off uint64, data *netbuf.Chain, done func(int, Attr, error)) {
	n := data.Len()
	msg, e := c.fhArgs(fh, 16)
	e.Uint64(off)
	e.Uint32(uint32(n))
	e.Uint32(uint32(n)) // XDR opaque length prefix
	k := c.newCall(replyWrite)
	k.doneWrite = done
	k.call(ProcWrite, msg, data)
}

// WriteBytes is Write with a plain byte payload (copied into pooled transmit
// buffers).
func (c *Client) WriteBytes(fh FH, off uint64, p []byte, done func(int, Attr, error)) {
	c.Write(fh, off, c.rpc.Node().TxPool.GetChain(p), done)
}

// Create makes a file.
func (c *Client) Create(dir FH, name string, done func(FH, Attr, error)) {
	k := c.newCall(replyFH)
	k.doneFH = done
	k.call(ProcCreate, c.nameArgs(dir, name), nil)
}

// Remove unlinks a file.
func (c *Client) Remove(dir FH, name string, done func(error)) {
	k := c.newCall(replyStatus)
	k.doneStatus = done
	k.call(ProcRemove, c.nameArgs(dir, name), nil)
}

// Readdir lists a directory. The listing is valid only during done: the
// next READDIR's reply overwrites it. Its strings may be kept.
func (c *Client) Readdir(dir FH, done func([]string, error)) {
	msg, _ := c.fhArgs(dir, 0)
	k := c.newCall(replyNames)
	k.doneNames = done
	k.call(ProcReaddir, msg, nil)
}

// orIO maps a parse failure or non-OK status to an error.
func orIO(st uint32, ok bool) error {
	if !ok {
		return &OpError{Status: ErrIO}
	}
	return StatusError(st)
}
