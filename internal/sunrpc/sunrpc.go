// Package sunrpc implements ONC RPC v2 (RFC 5531): call/reply framing with
// AUTH_NONE credentials, a client with xid matching, and a server with
// program/procedure dispatch. There is one Server and one Client; each speaks
// two framings — a message per UDP datagram (the paper's NFS transport) or
// record-marked messages on a TCP connection (stream.go, the §5.5 transport
// comparison).
//
// Bodies are netbuf chains, not byte slices: an NFS WRITE call arrives with
// its file data still in the original wire buffers (where the NCache module
// captures it), and an NFS READ reply is composed as a small XDR header
// chain plus a payload chain appended without copying.
package sunrpc

import (
	"errors"
	"fmt"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/tcp"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
	"ncache/internal/xdr"
)

// RPC constants.
const (
	rpcVersion = 2
	msgCall    = 0
	msgReply   = 1
)

// Accept status values in replies.
const (
	AcceptSuccess      = 0
	AcceptProgUnavail  = 1
	AcceptProgMismatch = 2
	AcceptProcUnavail  = 3
	AcceptGarbageArgs  = 4
	AcceptSystemErr    = 5
)

// callHeaderLen is the encoded size of a call header with AUTH_NONE:
// xid(4) mtype(4) rpcvers(4) prog(4) vers(4) proc(4) cred(8) verf(8).
const callHeaderLen = 40

// replyHeaderLen is the encoded size of an accepted reply header:
// xid(4) mtype(4) reply_stat(4) verf(8) accept_stat(4).
const replyHeaderLen = 24

// Errors surfaced by the layer.
var (
	ErrBadMessage = errors.New("sunrpc: malformed message")
	// ErrTimeout reports a call abandoned after exhausting retransmissions.
	ErrTimeout = errors.New("sunrpc: call timed out")
)

// Call is an inbound RPC call presented to a server handler.
type Call struct {
	Xid  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	// Src/SrcPort identify the caller; Dst is the local address the call
	// arrived on (replies are sourced from it).
	Src     eth.Addr
	SrcPort uint16
	Dst     eth.Addr
	// Body holds the argument bytes in the original wire buffers.
	// Ownership contract: the handler owns the references and must either
	// Release the chain or hand it to an API documented to take ownership;
	// retaining payload past the call (NCache capture) requires aliasing
	// via SubChain.
	Body *netbuf.Chain

	// The call's transport, which its reply goes back on: the datagram
	// socket it arrived on (udp, port) or the stream connection (conn).
	udp  *udp.Transport
	port uint16
	conn *tcp.Conn
	// pool recycles reply header buffers (the serving node's transmit pool).
	pool *netbuf.Pool
}

// send transmits a composed reply on the call's transport.
func (c Call) send(out *netbuf.Chain) error {
	if c.conn != nil {
		return markAndSend(c.conn, out)
	}
	return c.udp.SendChain(c.Dst, c.port, c.Src, c.SrcPort, out)
}

// messageBuf draws the header buffer of one RPC message from a transmit
// pool (a standalone one when the message outgrows its buffers; the
// message's chain is built on the pool either way): hdr bytes of RPC header,
// then n bytes of XDR head for the layer above, both encoded in place.
func messageBuf(p *netbuf.Pool, hdr, n int) (hb *netbuf.Buf, rpc, head []byte) {
	hb = p.GetSized(hdr+n, netbuf.DefaultHeadroom)
	return hb, hb.Bytes()[:hdr], hb.Bytes()[hdr:]
}

// putReplyHeader encodes an accepted-reply header (AUTH_NONE verifier).
func putReplyHeader(p []byte, xid, acceptStat uint32) {
	e := xdr.Over(p)
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(0) // MSG_ACCEPTED
	e.Uint32(0) // verf flavor AUTH_NONE
	e.Uint32(0) // verf length
	e.Uint32(acceptStat)
}

// putCallHeader encodes a call header (AUTH_NONE credentials and verifier).
func putCallHeader(p []byte, xid, prog, vers, proc uint32) {
	e := xdr.Over(p)
	e.Uint32(xid)
	e.Uint32(msgCall)
	e.Uint32(rpcVersion)
	e.Uint32(prog)
	e.Uint32(vers)
	e.Uint32(proc)
	e.Uint64(0) // cred AUTH_NONE, length 0
	e.Uint64(0) // verf AUTH_NONE, length 0
}

// ReplyBuf starts a successful reply: a pooled header buffer holding the
// RPC reply header, and the n bytes after it, which the caller fills with
// its XDR result head before passing the buffer to Send.
func (c Call) ReplyBuf(n int) (*netbuf.Buf, []byte) {
	hb, rpc, head := messageBuf(c.pool, replyHeaderLen, n)
	putReplyHeader(rpc, c.Xid, AcceptSuccess)
	return hb, head
}

// Send transmits a reply begun with ReplyBuf, followed by an optional payload
// chain appended without copying. The callee takes ownership of both.
func (c Call) Send(hb *netbuf.Buf, payload *netbuf.Chain) error {
	out := c.pool.ChainOf(hb)
	var inherited netbuf.Partial
	inherit := false
	if payload != nil {
		if p, ok := payload.CachedPartial(); ok && hb.Len()%2 == 0 {
			// Propagate the inherited payload checksum across the RPC
			// header (even-length, so the partials compose).
			var hs netbuf.Partial
			hs.AddBytes(hb.Bytes())
			inherited = netbuf.Combine(hs, p)
			inherit = true
		}
		out.AppendChain(payload)
	}
	if inherit {
		out.SetPartial(inherited)
	}
	return c.send(out)
}

// ReplyError sends a non-success accepted reply.
func (c Call) ReplyError(acceptStat uint32) error {
	hb, rpc, _ := messageBuf(c.pool, replyHeaderLen, 0)
	putReplyHeader(rpc, c.Xid, acceptStat)
	return c.send(c.pool.ChainOf(hb))
}

// parseHeader decodes a call header (callHeaderLen bytes) into c.
func (c *Call) parseHeader(raw []byte) bool {
	d := xdr.NewDecoder(raw)
	c.Xid, _ = d.Uint32()
	mtype, _ := d.Uint32()
	rpcv, _ := d.Uint32()
	c.Prog, _ = d.Uint32()
	c.Vers, _ = d.Uint32()
	proc, err := d.Uint32()
	c.Proc = proc
	return err == nil && mtype == msgCall && rpcv == rpcVersion
}

// parseReply decodes a reply header (replyHeaderLen bytes).
func parseReply(raw []byte) (xid, replyStat, accept uint32, ok bool) {
	d := xdr.NewDecoder(raw)
	xid, _ = d.Uint32()
	mtype, _ := d.Uint32()
	replyStat, _ = d.Uint32()
	d.Uint32() // verf flavor
	d.Uint32() // verf len
	accept, err := d.Uint32()
	return xid, replyStat, accept, err == nil && mtype == msgReply
}

// Handler processes one inbound call.
type Handler func(c Call)

// progVers identifies a registered program version.
type progVers struct {
	prog, vers uint32
}

// Server dispatches RPC calls to the registered programs. It serves nothing
// until put on a transport — ServeUDP here, ServeStream in stream.go — and one
// server (one program table) can face both at once.
type Server struct {
	node     *simnet.Node
	programs map[progVers]map[uint32]Handler
	// calls is the free list of dispatch records (see serverCall).
	calls netbuf.FreeList[*serverCall]
	// BadCalls counts malformed or unroutable calls.
	BadCalls uint64
}

// serverCall is the recycled record of one call between its parse and its
// handler: it carries the parsed call and the handler across the RPCNs charge,
// with run bound once, when the record is first allocated. Its job ends where
// the handler begins, so run copies both out and retires the record first;
// the handler receives the call by value and a reply needs no record.
type serverCall struct {
	netbuf.Recycled
	s    *Server
	call Call
	h    Handler
	run  func()
}

// call takes a blank record off the free list.
func (s *Server) call() *serverCall {
	sc := s.calls.Take()
	if sc == nil {
		sc = &serverCall{s: s}
		sc.run = sc.handle
	}
	return sc
}

// handle runs the handler once the CPU has served the dispatch cost.
func (sc *serverCall) handle() {
	h, c := sc.h, sc.call
	sc.retire()
	h(c)
}

func (sc *serverCall) retire() {
	*sc = serverCall{Recycled: sc.Recycled, s: sc.s, run: sc.run}
	sc.s.calls.Put(sc)
}

// NewServer creates an RPC server on node.
func NewServer(node *simnet.Node) *Server {
	return &Server{node: node, programs: make(map[progVers]map[uint32]Handler)}
}

// Register installs the handler for (prog, vers, proc).
func (s *Server) Register(prog, vers, proc uint32, h Handler) {
	pv := progVers{prog, vers}
	if s.programs[pv] == nil {
		s.programs[pv] = make(map[uint32]Handler)
	}
	s.programs[pv][proc] = h
}

// ServeUDP serves calls arriving as datagrams on the transport's port.
func (s *Server) ServeUDP(t *udp.Transport, port uint16) error {
	return t.Bind(port, func(dg udp.Datagram) {
		s.dispatch(Call{Src: dg.Src, SrcPort: dg.SrcPort, Dst: dg.Dst, udp: t, port: port}, dg.Payload)
	})
}

// dispatch parses one call message — a datagram payload or a stream record —
// and runs its handler. call arrives holding what the transport knows: the
// caller's addresses and the route the reply goes back on.
func (s *Server) dispatch(call Call, body *netbuf.Chain) {
	if body.Len() < callHeaderLen {
		s.BadCalls++
		body.Release()
		return
	}
	var raw [callHeaderLen]byte
	_ = body.PullHeaderInto(raw[:]) // in range: checked above
	if !call.parseHeader(raw[:]) {
		s.BadCalls++
		body.Release()
		return
	}
	call.Body, call.pool = body, s.node.TxPool
	procs, ok := s.programs[progVers{call.Prog, call.Vers}]
	if !ok {
		s.BadCalls++
		_ = call.ReplyError(AcceptProgUnavail)
		body.Release()
		return
	}
	h, ok := procs[call.Proc]
	if !ok {
		s.BadCalls++
		_ = call.ReplyError(AcceptProcUnavail)
		body.Release()
		return
	}
	// Per-message RPC processing cost (XDR walk, dispatch).
	trace.To(s.node.Eng, trace.LRPC)
	sc := s.call()
	sc.call, sc.h = call, h
	s.node.Charge(s.node.Cost.RPCNs, sc.run)
}

// Reply is an inbound RPC reply presented to a client callback.
type Reply struct {
	Xid    uint32
	Accept uint32
	// Body holds the result bytes past the reply header, in the original
	// wire buffers. The callback owns the references.
	Body *netbuf.Chain
}

// Client issues RPC calls to one server and matches replies by xid: as
// datagrams from a bound UDP port (NewClient) or as records on a TCP
// connection (DialStream). By default it assumes a lossless fabric (the
// paper's testbed); call SetRetransmit to make a datagram client survive
// injected frame loss.
type Client struct {
	node *simnet.Node
	// How a composed call reaches the server: a datagram from local:port
	// to server:serverPort on udp, or a record on conn when that is set.
	udp              *udp.Transport
	local, server    eth.Addr
	port, serverPort uint16
	conn             *tcp.Conn

	nextXid uint32
	pending map[uint32]*pendingCall
	// free is the free list of call records (see pendingCall).
	free netbuf.FreeList[*pendingCall]
	// BadReplies counts malformed or unmatched replies.
	BadReplies uint64

	// rto/maxTries configure retransmission (off while maxTries is zero):
	// rto is the floor of the resend interval, path the round trip measured
	// to this client's one server, which the interval follows above it.
	rto      sim.Duration
	maxTries int
	path     sim.RTT
	// Retransmits counts calls re-sent after a timeout; Timeouts counts
	// calls abandoned after the last try; DupReplies counts replies
	// suppressed because their call already completed (a retransmitted
	// call the server executed twice).
	Retransmits uint64
	Timeouts    uint64
	DupReplies  uint64
	// recent remembers completed xids (bounded FIFO) so late duplicate
	// replies are told apart from genuinely unmatched ones.
	recent  map[uint32]struct{}
	recentQ []uint32
}

// recentXids bounds the duplicate-suppression window.
const recentXids = 4096

// rtoCeilFactor bounds a call's resend interval at 32× the configured floor —
// tcp.MaxRTO over tcp.BaseRTO, so at the fault calibration's 20 ms floor the
// two transports back off to the same 640 ms. A call's worst-case budget
// before ErrTimeout is the sum of its waits: from the floor, rto × (2^maxTries
// − 1) — 20 + 40 + 80 + 160 + 320 = 620 ms at 20 ms × 5 tries — and on a path
// that has learned a longer interval at most maxTries × 32 × rto (3.2 s).
const rtoCeilFactor = 32

// pendingCall is the recycled record of one outstanding RPC: its completion
// callback, the reply once it has arrived (held across the RPCNs charge), and,
// when retransmission is on, everything needed to put the call back on the
// wire and to time its reply. fire and onTimer are bound once, when the record
// is first allocated.
//
// A record never leaves its Client and retires where the call ends — before
// the caller's done runs, with the outcome copied out first, because a
// closed-loop caller issues its next call from inside done and that call takes
// this very record. A recycled pointer may therefore be live again under
// another xid while something armed for the old tenant is still around: gen
// counts incarnations, every timer carries the gen it was armed under, and a
// late duplicate reply finds its xid in recent, never in pending.
type pendingCall struct {
	netbuf.Recycled
	c    *Client
	gen  uint32
	xid  uint32
	done func(Reply, error)

	wire  *netbuf.Chain
	timer sim.EventID
	sent  sim.Time
	rto   sim.Duration
	tries int

	reply Reply
	err   error

	fire    func()
	onTimer sim.Handler
}

// call takes a blank record off the free list.
func (c *Client) call() *pendingCall {
	pc := c.free.Take()
	if pc == nil {
		pc = &pendingCall{c: c}
		pc.fire, pc.onTimer = pc.deliver, pc.timeout
	}
	return pc
}

// retire blanks the record, keeping its bound continuations, and returns it
// to the free list.
func (pc *pendingCall) retire() {
	*pc = pendingCall{Recycled: pc.Recycled, c: pc.c, gen: pc.gen + 1, fire: pc.fire, onTimer: pc.onTimer}
	pc.c.free.Put(pc)
}

// complete ends the call: the record retires, then the caller hears.
func (pc *pendingCall) complete(r Reply, err error) {
	done := pc.done
	pc.retire()
	done(r, err)
}

// deliver hands over the reply receive stored, once the CPU has served the
// per-message cost.
func (pc *pendingCall) deliver() { pc.complete(pc.reply, pc.err) }

// release drops the retained wire image.
func (pc *pendingCall) release() {
	if pc.wire != nil {
		pc.wire.Release()
		pc.wire = nil
	}
}

// Node returns the node owning the client's transport.
func (c *Client) Node() *simnet.Node { return c.node }

// newClient creates a client with no route to a server yet.
func newClient(node *simnet.Node) *Client {
	return &Client{node: node, nextXid: 1, pending: make(map[uint32]*pendingCall)}
}

// NewClient binds a datagram RPC client to a local address and port, calling
// the server at server:serverPort.
func NewClient(t *udp.Transport, local eth.Addr, port uint16, server eth.Addr, serverPort uint16) (*Client, error) {
	c := newClient(t.Node())
	c.udp, c.local, c.port, c.server, c.serverPort = t, local, port, server, serverPort
	if err := t.Bind(port, func(dg udp.Datagram) { c.receive(dg.Payload) }); err != nil {
		return nil, err
	}
	return c, nil
}

// send puts one composed call on the wire, taking ownership of it.
func (c *Client) send(out *netbuf.Chain) error {
	if c.conn != nil {
		return markAndSend(c.conn, out)
	}
	return c.udp.SendChain(c.local, c.port, c.server, c.serverPort, out)
}

// SetRetransmit enables retransmission: an unanswered call is re-sent after
// the round trip the client has measured to its server, or rto where that is
// less (every try doubling the call's wait, up to rtoCeilFactor × rto), and
// fails with ErrTimeout after maxTries sends. Only a reply to a call sent once
// is a measurement (Karn); a call that had to back off hands its interval to
// the next, so a server slower than rto is learned rather than resent to for
// ever. Off by default so lossless-fabric results are untouched by the
// machinery, and always off on a stream client, where TCP recovers the loss
// below the record stream.
func (c *Client) SetRetransmit(rto sim.Duration, maxTries int) {
	if c.conn != nil || rto <= 0 || maxTries < 1 {
		c.rto, c.maxTries = 0, 0
		return
	}
	c.rto, c.maxTries = rto, maxTries
	if c.recent == nil {
		c.recent = make(map[uint32]struct{})
	}
}

// CallBuf starts a call from node: a pooled header buffer with room for the
// RPC call header, and the n bytes after it, which the caller fills with its
// XDR argument head before passing the buffer to a client's Call.
func CallBuf(node *simnet.Node, n int) (*netbuf.Buf, []byte) {
	hb, _, args := messageBuf(node.TxPool, callHeaderLen, n)
	return hb, args
}

// composeCall finishes a message begun with CallBuf on p: the call header
// goes in front of the arguments, the payload (may be nil) behind them by
// reference.
func composeCall(p *netbuf.Pool, msg *netbuf.Buf, xid, prog, vers, proc uint32, payload *netbuf.Chain) *netbuf.Chain {
	putCallHeader(msg.Bytes()[:callHeaderLen], xid, prog, vers, proc)
	out := p.ChainOf(msg)
	if payload != nil {
		out.AppendChain(payload)
	}
	return out
}

// Call issues one RPC. msg is a CallBuf buffer holding the XDR-encoded
// argument head; payload (may be nil) is appended without copying — how a
// zero-copy NFS WRITE travels. The client takes ownership of both. done
// fires when the matching reply arrives.
func (c *Client) Call(prog, vers, proc uint32, msg *netbuf.Buf, payload *netbuf.Chain, done func(Reply, error)) error {
	trace.To(c.node.Eng, trace.LRPC)
	xid := c.nextXid
	c.nextXid++
	out := composeCall(c.node.TxPool, msg, xid, prog, vers, proc, payload)
	pc := c.call()
	pc.xid, pc.done = xid, done
	if c.maxTries > 0 {
		// The retained wire image aliases the outgoing buffers through
		// windows of its own; the roots stay pinned (and accounted to
		// whoever owns them) until the call completes and release()
		// drops them.
		pc.wire = out.Clone()
		pc.wire.SetOwner("sunrpc.retransmit")
		pc.sent = c.node.Eng.Now()
		pc.rto = c.path.Interval(c.rto, rtoCeilFactor*c.rto)
		pc.tries = 1
	}
	c.pending[xid] = pc
	if err := c.send(out); err != nil {
		delete(c.pending, xid)
		pc.release()
		pc.retire()
		return err
	}
	if c.maxTries > 0 {
		pc.arm()
	}
	return nil
}

// arm schedules the retransmission timeout of an outstanding call. The timer
// event rides the caller's request context, so the waited-out RTO is booked as
// fault-attributed network time on the request's span.
func (pc *pendingCall) arm() {
	pc.timer = pc.c.node.PostAt(pc.c.node.Eng.Now().Add(pc.rto), pc.onTimer, nil, nil, int64(pc.gen))
}

// timeout resends the call or, after the last try, abandons it. Every exit
// cancels the timer and Engine.Cancel removes the event, so a timer armed for
// an earlier tenant of the record should never get here; the gen it carries
// makes that a check and not an assumption.
func (pc *pendingCall) timeout(_, _ any, gen int64) {
	c := pc.c
	if uint32(gen) != pc.gen || c.pending[pc.xid] != pc {
		return
	}
	trace.Fault(c.node.Eng, trace.LNet, pc.rto)
	if pc.tries >= c.maxTries {
		delete(c.pending, pc.xid)
		pc.release()
		c.Timeouts++
		pc.complete(Reply{Xid: pc.xid}, ErrTimeout)
		return
	}
	pc.tries++
	c.Retransmits++
	pc.rto = min(2*pc.rto, rtoCeilFactor*c.rto)
	c.path.BackOff(pc.rto)
	_ = c.send(pc.wire.Clone())
	pc.arm()
}

// remember records a completed xid in the duplicate-suppression window.
func (c *Client) remember(xid uint32) {
	if c.recent == nil {
		return
	}
	if len(c.recentQ) >= recentXids {
		delete(c.recent, c.recentQ[0])
		c.recentQ = c.recentQ[1:]
	}
	c.recent[xid] = struct{}{}
	c.recentQ = append(c.recentQ, xid)
}

// receive matches one reply message — a datagram payload or a stream record —
// to its pending call.
func (c *Client) receive(body *netbuf.Chain) {
	if body.Len() < replyHeaderLen {
		c.BadReplies++
		body.Release()
		return
	}
	var raw [replyHeaderLen]byte
	_ = body.PullHeaderInto(raw[:]) // in range: checked above
	xid, replyStat, accept, ok := parseReply(raw[:])
	if !ok {
		c.BadReplies++
		body.Release()
		return
	}
	pc, ok := c.pending[xid]
	if !ok {
		if _, dup := c.recent[xid]; dup {
			// A retransmitted call the server answered twice: the
			// first reply already completed it. Drop silently.
			c.DupReplies++
			body.Release()
			return
		}
		c.BadReplies++
		body.Release()
		return
	}
	delete(c.pending, xid)
	node := c.node
	node.Eng.Cancel(pc.timer)
	if pc.tries == 1 {
		c.path.Sample(node.Eng.Now().Sub(pc.sent))
	}
	pc.release()
	c.remember(xid)
	trace.To(node.Eng, trace.LRPC)
	if replyStat != 0 {
		body.Release()
		pc.reply, pc.err = Reply{Xid: xid}, fmt.Errorf("%w: denied", ErrBadMessage)
	} else {
		pc.reply = Reply{Xid: xid, Accept: accept, Body: body}
	}
	node.Charge(node.Cost.RPCNs, pc.fire)
}

// RTT returns the round trip the client has measured to its server, which
// the resend interval of its next call follows.
func (c *Client) RTT() sim.RTT { return c.path }

// Pending reports outstanding calls (for tests and drain checks).
func (c *Client) Pending() int { return len(c.pending) }
