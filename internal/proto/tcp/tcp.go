// Package tcp implements the stream transport the simulated iSCSI and HTTP
// traffic runs on. It is a deliberately reduced TCP: three-way handshake,
// MSS segmentation, cumulative acknowledgments with delayed acks, a fixed
// send window, teardown by reset — and loss recovery: every in-flight segment
// is retained on a per-connection retransmission queue (refcounted netbuf
// clones owned by "tcp.retransmit"), an RTO timer drives go-back-N resend —
// its interval the connection's measured round trip (one timed segment per
// flight, sim.RTT) within [BaseRTO, MaxRTO], doubled per consecutive timeout
// — triple duplicate ACKs trigger fast retransmit (not those a resend itself
// provoked: RFC 6582's recover), and the receiver tolerates out-of-order
// segments (buffer-or-drop with cumulative ACK) and suppresses duplicates.
// Genuinely malformed segments (runts, bad checksums) still count as protocol
// errors; loss-induced anomalies are counted separately. Per-packet CPU costs
// of data segments, acks *and retransmissions* are charged through the IP
// layer, which is what makes TCP-borne workloads carry the higher per-packet
// overhead the paper notes for HTTP versus NFS-over-UDP.
//
// Like the udp package, it exposes the extended zero-copy interface the
// NCache kernel modification adds: SendChain transmits payload already in
// network buffers without copying.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
)

// HeaderLen is the encoded size of the (option-less) segment header.
const HeaderLen = 16

// DefaultWindow is the fixed flow-control window: bytes in flight per
// connection.
const DefaultWindow = 256 * 1024

// Loss-recovery tuning. The RTO is the connection's round-trip estimate
// (Conn.path) held within [BaseRTO, MaxRTO]: BaseRTO, the floor, matches the
// RPC-layer retransmit floor used by the fault calibration in passthru and is
// what every path that measures less waits — a lossless fabric's round trips
// are microseconds, so there the timer is the constant it used to be. Backoff
// doubles per consecutive timeout up to MaxRTO (32× the floor). After
// MaxRetries consecutive timeouts on the same data the connection aborts
// (ErrTimeout), which bounds simulated time when the peer is gone: from the
// floor 20 + 40 + … + 640 + 6 × 640 ms ≈ 5.1 s, on a path that has learned a
// longer interval at most 12 × MaxRTO = 7.7 s.
const (
	BaseRTO    = 20 * sim.Millisecond
	MaxRTO     = 640 * sim.Millisecond
	MaxRetries = 12
	// dupAckThreshold duplicate cumulative acks trigger fast retransmit.
	dupAckThreshold = 3
	// maxOOO bounds the out-of-order reassembly queue; it covers a full
	// DefaultWindow of MSS segments so a single early loss does not shed
	// the rest of the window.
	maxOOO = 256
)

// Segment flags. Bit 2 (FIN) is unused: a connection ends by reset.
const (
	flagSYN = 1 << 0
	flagACK = 1 << 1
	flagPSH = 1 << 3
	flagRST = 1 << 4
)

// Errors surfaced by the transport.
var (
	ErrPortInUse    = errors.New("tcp: port in use")
	ErrConnClosed   = errors.New("tcp: connection closed")
	ErrConnReset    = errors.New("tcp: connection reset")
	ErrNoSuchRemote = errors.New("tcp: connection refused")
	ErrTimeout      = errors.New("tcp: retransmission timeout")
)

type state int

const (
	stateSynSent state = iota + 1
	stateSynRcvd
	stateEstablished
	stateClosed
)

// AcceptFunc receives newly established passive connections.
type AcceptFunc func(c *Conn)

// Transport is a node's TCP layer.
type Transport struct {
	ip        *ipv4.Stack
	node      *simnet.Node
	listeners map[uint16]AcceptFunc
	conns     map[connKey]*Conn
	nextPort  uint16
	// train marks which segments of the burst being sent may cross quiet
	// (Conn.pump).
	train []bool

	// ProtocolErrors counts genuinely malformed segments: runts and
	// checksum failures. Loss-induced anomalies (gaps, duplicates, strays
	// for torn-down connections) are recoverable and counted separately.
	ProtocolErrors uint64
	// StraySegments counts non-SYN segments for unknown connections
	// (usually retransmissions racing a teardown); each is answered with
	// RST so the peer stops retransmitting.
	StraySegments uint64
	// DupSegments counts received segments wholly or partially below
	// rcvNxt (duplicate deliveries suppressed by the cumulative ack).
	DupSegments uint64
	// OutOfOrder counts received segments beyond rcvNxt that were buffered
	// for reassembly; OutOfOrderDrops counts those shed because the
	// reassembly queue was full.
	OutOfOrder      uint64
	OutOfOrderDrops uint64
	// Retransmits counts segments re-sent (by RTO or fast retransmit).
	// RTOEvents and FastRetransmits count the triggering events.
	Retransmits     uint64
	RTOEvents       uint64
	FastRetransmits uint64
	// AbortedConns counts connections torn down by the retransmission
	// limit or by a peer reset.
	AbortedConns uint64
}

type connKey struct {
	localAddr, remoteAddr eth.Addr
	localPort, remotePort uint16
}

// NewTransport creates the TCP layer and registers it with the IP stack.
func NewTransport(ip *ipv4.Stack) *Transport {
	t := &Transport{
		ip:        ip,
		node:      ip.Node(),
		listeners: make(map[uint16]AcceptFunc),
		conns:     make(map[connKey]*Conn),
		// Each incarnation draws ephemeral ports from its own window, so a
		// restarted node never reuses a 4-tuple a peer holds for the dead.
		nextPort: 49152 + 1024*uint16(ip.Node().Incarnation()%16),
	}
	ip.Register(ipv4.ProtoTCP, t.receive)
	ip.RegisterQuiet(ipv4.ProtoTCP, t.receiveQuiet)
	return t
}

// Listen installs an accept callback for a local port.
func (t *Transport) Listen(port uint16, accept AcceptFunc) error {
	if _, busy := t.listeners[port]; busy {
		return fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	t.listeners[port] = accept
	return nil
}

// Connect opens a connection from the local address to remote:port and
// invokes done when the handshake completes (or fails).
func (t *Transport) Connect(local, remote eth.Addr, remotePort uint16, done func(*Conn, error)) {
	key := connKey{localAddr: local, remoteAddr: remote, localPort: t.nextPort, remotePort: remotePort}
	t.nextPort++
	c := newConn(t, key, stateSynSent)
	c.onEstab = done
	t.conns[key] = c
	c.retain(c.sndNxt, 1, flagSYN, nil)
	c.sendSegment(flagSYN, nil)
	c.armRTO()
}

// mss returns the maximum segment payload for the node's first NIC.
func (t *Transport) mss() int { return t.node.NICs()[0].MTU - ipv4.HeaderLen - HeaderLen }

// rtxSeg is one retained in-flight segment. payload is a refcounted clone
// of the transmitted chain (owner "tcp.retransmit"); seqLen covers payload
// bytes plus one for SYN.
type rtxSeg struct {
	seq     uint32
	seqLen  uint32
	flags   uint8
	payload *netbuf.Chain
}

// quietSeg is a data segment that crossed quiet, held until its upcall's
// key has passed (Conn.settle).
type quietSeg struct {
	upcall   sim.Key
	seq, ack uint32
	payload  *netbuf.Chain
}

// oooSeg is one out-of-order received segment buffered for reassembly.
type oooSeg struct {
	seq     uint32
	flags   uint8
	payload *netbuf.Chain
}

// Conn is one TCP connection endpoint.
type Conn struct {
	t     *Transport
	key   connKey
	state state
	mss   int

	sndNxt uint32 // next sequence number to send
	sndUna uint32 // oldest unacknowledged sequence number
	rcvNxt uint32 // next sequence number expected
	window uint32 // send window (bytes in flight allowed)

	// sendQ holds payload waiting for window space, as one logical chain.
	sendQ *netbuf.Chain
	// pushAt marks stream offsets (absolute seq) that end a SendChain, so
	// the final segment of each application message carries PSH and
	// triggers an immediate ack.
	pushAt []uint32

	// rtxQ retains every unacknowledged segment in send order for
	// go-back-N resend. rtoFn is the pre-bound timer callback (one
	// closure per connection, so arming allocates nothing).
	rtxQ     []rtxSeg
	rtoFn    func()
	rtoTimer sim.EventID
	rtoArmed bool
	rtoTries int
	dupAcks  int
	// path estimates the round trip rto() is derived from. One segment per
	// flight is timed: pump stamps the first it sends while none is being
	// timed (timing, timedEnd, timedAt), ackRtx samples when the cumulative
	// ack covers it, and any resend abandons the measurement (Karn: the ack
	// could be for either copy).
	path     sim.RTT
	timing   bool
	timedEnd uint32
	timedAt  sim.Time
	// recover is sndNxt at the last timeout (RFC 6582). The receiver answers
	// every copy the go-back-N resend put on the wire with a duplicate ack;
	// while recovering — until sndUna passes recover — those say nothing
	// about a new loss and do not count toward fast retransmit. A fast
	// retransmit does not start a recovery: it resends one segment, whose one
	// echo cannot reach dupAckThreshold, and with the guard up a window holed
	// twice would wait for the timer to fill its second hole.
	recovering bool
	recover    uint32

	// oooQ buffers out-of-order received segments, sorted by seq.
	oooQ []oooSeg

	receiver func(*netbuf.Chain)
	onEstab  func(*Conn, error)
	acceptFn AcceptFunc
	delack   int

	// Quiet segments (see pump). nic sends the connection's segments;
	// ackSent is the ack number the connection last sent; peerDelack mirrors
	// the peer's delack as the segments sent so far leave it; resent is set
	// by the first resend. quiet[qh:] holds the segments received quiet
	// whose upcalls have yet to pass.
	nic        *simnet.NIC
	ackSent    uint32
	peerDelack int
	resent     bool
	quiet      []quietSeg
	qh         int
}

func newConn(t *Transport, key connKey, st state) *Conn {
	c := &Conn{
		t:      t,
		key:    key,
		state:  st,
		window: DefaultWindow,
		mss:    t.mss(),
		nic:    t.nic(key.localAddr),
	}
	c.rtoFn = c.onRTO
	return c
}

// Node returns the node owning the connection's local endpoint.
func (c *Conn) Node() *simnet.Node { return c.t.node }

// LocalAddr returns the connection's local address.
func (c *Conn) LocalAddr() eth.Addr { return c.key.localAddr }

// RemoteAddr returns the connection's remote address.
func (c *Conn) RemoteAddr() eth.Addr { return c.key.remoteAddr }

// SetReceiver installs the in-order stream consumer. Data chains passed to
// the receiver are the original wire buffers. Ownership contract: the
// receiver must Release each chain, or pass it on, exactly once.
func (c *Conn) SetReceiver(f func(*netbuf.Chain)) { c.receiver = f }

// Send queues plain bytes on the stream (they are copied into pooled
// transmit buffers — the legacy path; the copy cost is the caller's to
// charge).
func (c *Conn) Send(p []byte) error {
	return c.SendChain(c.t.node.TxPool.GetChain(p))
}

// SendChain queues payload already held in network buffers — the zero-copy
// socket extension. The connection takes ownership of the chain.
func (c *Conn) SendChain(payload *netbuf.Chain) error {
	if c.state != stateEstablished && c.state != stateSynRcvd && c.state != stateSynSent {
		payload.Release()
		return ErrConnClosed
	}
	if c.sendQ == nil {
		c.sendQ = c.t.node.TxPool.NewChain(0)
	}
	c.sendQ.AppendChain(payload)
	// The last byte of this message ends a PSH segment so the peer acks
	// immediately (message boundaries drive request/response traffic).
	c.pushAt = append(c.pushAt, c.sndNxt+uint32(c.sendQ.Len()))
	c.pump()
	return nil
}

// retain records a transmitted segment on the retransmission queue. For
// data segments the clone shares the payload buffers (refcounted, owner
// "tcp.retransmit"); control segments retain only their sequence space.
func (c *Conn) retain(seq, seqLen uint32, flags uint8, payload *netbuf.Chain) {
	var keep *netbuf.Chain
	if payload != nil {
		keep = payload.Clone()
		keep.SetOwner("tcp.retransmit")
	}
	c.rtxQ = append(c.rtxQ, rtxSeg{seq: seq, seqLen: seqLen, flags: flags, payload: keep})
}

// pump transmits queued data within the window, as one train (see
// simnet.NIC.StartTrain). A segment of it crosses quiet, with no departure
// and no upcall event, when its upcall would change nothing but rcvNxt,
// delack and the receiver's buffered stream: it is not the train's last,
// which departs behind it and whose upcall applies it first; it carries no
// PSH, so it ends no message; its ack number repeats the one last sent, so
// it advances nothing; and the peer's delack reads 0 before it, so it
// triggers no ack. peerDelack predicts that count, and holds while every
// segment arrives once and in order: so the connection must never have
// resent, and the path must be one no fault schedule names (EndTrain). The
// peer's NIC must offload checksums, or the upcall would charge their CPU.
func (c *Conn) pump() {
	if c.state != stateEstablished {
		return
	}
	train := c.nic != nil && !c.resent && c.nic.PeerOffloads(c.key.remoteAddr)
	quiet := c.t.train[:0]
	if train {
		c.nic.StartTrain()
	}
	for c.sendQ != nil && c.sendQ.Len() > 0 {
		inflight := c.sndNxt - c.sndUna
		if inflight >= c.window {
			break
		}
		room := int(c.window - inflight)
		n := c.sendQ.Len()
		if n > c.mss {
			n = c.mss
		}
		if n > room {
			n = room
		}
		seg, _ := c.sendQ.PullChain(n) // in range: n is at most sendQ's length
		flags := uint8(flagACK)
		endSeq := c.sndNxt + uint32(n)
		if len(c.pushAt) > 0 && seqLEQ(c.pushAt[0], endSeq) {
			flags |= flagPSH
			// Copied down, not re-sliced, so the queue keeps its capacity.
			c.pushAt = c.pushAt[:copy(c.pushAt, c.pushAt[1:])]
		}
		c.retain(c.sndNxt, uint32(n), flags, seg)
		ack := c.ackSent
		c.sendSegmentSeq(flags, c.sndNxt, seg)
		quiet = append(quiet, c.ackSent == ack && flags&flagPSH == 0 && c.peerDelack == 0)
		if flags&flagPSH != 0 || c.peerDelack == 1 {
			c.peerDelack = 0
		} else {
			c.peerDelack = 1
		}
		c.sndNxt = endSeq
		if !c.timing {
			c.timing, c.timedEnd, c.timedAt = true, endSeq, c.t.node.Eng.Now()
		}
		c.armRTO()
	}
	if train {
		c.nic.EndTrain(quiet)
	}
	c.t.train = quiet[:0]
}

// armRTO starts the retransmission timer if it is not already running and
// unacknowledged data exists.
func (c *Conn) armRTO() {
	if c.rtoArmed || len(c.rtxQ) == 0 {
		return
	}
	c.rtoTimer = c.t.node.Schedule(c.rto(), c.rtoFn)
	c.rtoArmed = true
}

// restartRTO re-bases the timer (called when the ack point advances).
func (c *Conn) restartRTO() {
	if c.rtoArmed {
		c.t.node.Cancel(c.rtoTimer)
		c.rtoArmed = false
	}
	c.armRTO()
}

// cancelRTO stops the timer.
func (c *Conn) cancelRTO() {
	if c.rtoArmed {
		c.t.node.Cancel(c.rtoTimer)
		c.rtoArmed = false
	}
}

// rto returns the current retransmission timeout: the path's interval,
// doubled per consecutive timeout.
func (c *Conn) rto() sim.Duration {
	d := c.path.Interval(BaseRTO, MaxRTO)
	for i := 0; i < c.rtoTries && d < MaxRTO; i++ {
		d *= 2
	}
	return min(d, MaxRTO)
}

// onRTO fires when the oldest unacknowledged segment times out: go-back-N
// resend of the whole retransmission queue with doubled backoff. The timer
// event inherits the request context it was armed under, so the added
// latency is fault-attributed to the network layer on the active span
// (tcp.rto).
func (c *Conn) onRTO() {
	c.rtoArmed = false
	if c.state == stateClosed || len(c.rtxQ) == 0 {
		return
	}
	c.rtoTries++
	if c.rtoTries > MaxRetries {
		c.abort(ErrTimeout, true)
		return
	}
	c.t.RTOEvents++
	trace.Fault(c.t.node.Eng, trace.LNet, c.rto())
	c.recovering, c.recover = true, c.sndNxt
	for i := range c.rtxQ {
		c.resend(&c.rtxQ[i])
	}
	c.armRTO()
}

// fastRetransmit resends the oldest unacknowledged segment, which the
// caller has checked exists, immediately (triple duplicate acks signal an
// isolated loss; the rest of the window is likely buffered at the receiver). Annotated as tcp.fastrtx on the
// active span: a fault event with no timer latency of its own.
func (c *Conn) fastRetransmit() {
	c.t.FastRetransmits++
	trace.Fault(c.t.node.Eng, trace.LNet, 0)
	c.resend(&c.rtxQ[0])
}

// resend re-transmits one retained segment. The retransmission travels the
// normal IP path, so per-packet and checksum CPU are charged exactly like
// a first transmission.
func (c *Conn) resend(s *rtxSeg) {
	c.t.Retransmits++
	c.timing, c.resent = false, true
	var pl *netbuf.Chain
	if s.payload != nil {
		pl = s.payload.Clone()
	}
	c.sendSegmentSeq(s.flags, s.seq, pl)
}

// ackRtx drops retained segments fully covered by the cumulative ack and
// resets the backoff state, which the path remembers until its next sample:
// if the timer fired only because the round trip outgrew it, the next flight
// must not start from the same interval. An ack covering the timed segment
// is that sample.
func (c *Conn) ackRtx(ack uint32) {
	i := 0
	for ; i < len(c.rtxQ); i++ {
		s := &c.rtxQ[i]
		if !seqLEQ(s.seq+s.seqLen, ack) {
			break
		}
		s.payload.Release()
	}
	if i > 0 {
		m := copy(c.rtxQ, c.rtxQ[i:])
		for j := m; j < len(c.rtxQ); j++ {
			c.rtxQ[j] = rtxSeg{}
		}
		c.rtxQ = c.rtxQ[:m]
		// Backoff before sample: a clean sample supersedes it.
		if c.rtoTries > 0 {
			c.path.BackOff(c.rto())
		}
		c.rtoTries = 0
		if c.timing && seqLEQ(c.timedEnd, ack) {
			c.timing = false
			c.path.Sample(c.t.node.Eng.Now().Sub(c.timedAt))
		}
		if c.recovering && seqLT(c.recover, ack) {
			c.recovering = false
		}
		c.dupAcks = 0
		if len(c.rtxQ) == 0 {
			c.cancelRTO()
		} else {
			c.restartRTO()
		}
	}
}

// sendSegment emits a control segment at the current send sequence.
func (c *Conn) sendSegment(flags uint8, payload *netbuf.Chain) {
	c.sendSegmentSeq(flags, c.sndNxt, payload)
	if flags&flagSYN != 0 {
		c.sndNxt++
	}
}

// sendSegmentSeq builds, checksums and transmits one segment.
func (c *Conn) sendSegmentSeq(flags uint8, seq uint32, payload *netbuf.Chain) {
	c.settle()
	c.ackSent = c.rcvNxt
	c.t.sendSeg(c.key, seq, c.rcvNxt, flags, payload)
}

// sendAck emits an immediate pure ack and resets the delayed-ack counter.
func (c *Conn) sendAck() {
	c.delack = 0
	c.sendSegmentSeq(flagACK, c.sndNxt, nil)
}

// sendSeg builds, checksums and transmits one segment for key (which need
// not belong to a live connection — RSTs answer strays after teardown).
func (t *Transport) sendSeg(key connKey, seq, ackNo uint32, flags uint8, payload *netbuf.Chain) {
	hb := t.node.HdrPool.Get()
	hdr, _ := hb.Push(HeaderLen) // HdrPool's headroom fits this and the IP and Ethernet headers
	binary.BigEndian.PutUint16(hdr[0:2], key.localPort)
	binary.BigEndian.PutUint16(hdr[2:4], key.remotePort)
	binary.BigEndian.PutUint32(hdr[4:8], seq)
	binary.BigEndian.PutUint32(hdr[8:12], ackNo)
	hdr[12] = flags
	hdr[13] = 0
	hdr[14], hdr[15] = 0, 0

	plen, wins := 0, 0
	sum := pseudoHeaderSum(key.localAddr, key.remoteAddr)
	sum.AddBytes(hdr)
	if payload != nil {
		plen, wins = payload.Len(), payload.NumBufs()
		sum = netbuf.Combine(sum, netbuf.PartialOfChain(payload))
	}
	ck := sum.Checksum()
	binary.BigEndian.PutUint16(hdr[14:16], ck)
	if !t.offloaded(key.localAddr) && plen > 0 {
		t.node.Copies.ChecksumBytes += uint64(plen)
		t.node.Charge(t.node.Cost.ChecksumCost(plen), nil)
	}

	// One chain, sized once, carries the header buffer and the payload.
	seg := t.node.TxPool.NewChain(1 + wins)
	seg.Append(hb)
	seg.AppendChain(payload)
	// Send releases a segment it cannot send, as a lossy wire would drop it.
	_ = t.ip.Send(key.localAddr, key.remoteAddr, ipv4.ProtoTCP, seg)
}

// nic returns the node's NIC at addr, or nil.
func (t *Transport) nic(addr eth.Addr) *simnet.NIC {
	for _, nic := range t.node.NICs() {
		if nic.Addr == addr {
			return nic
		}
	}
	return nil
}

// offloaded reports checksum-offload capability of the NIC at addr.
func (t *Transport) offloaded(local eth.Addr) bool {
	nic := t.nic(local)
	return nic != nil && nic.ChecksumOffload
}

// header is one parsed segment header.
type header struct {
	key      connKey
	seq, ack uint32
	flags    uint8
}

// parse pulls a segment's header off payload and verifies the transport
// checksum (free with offload; the cost model for software checksumming is
// charged by receive). It reports false for a segment it counts as a
// protocol error.
func (t *Transport) parse(src, dst eth.Addr, payload *netbuf.Chain) (header, bool) {
	var raw [HeaderLen]byte
	if payload.Len() < HeaderLen {
		t.ProtocolErrors++
		return header{}, false
	}
	_ = payload.PullHeaderInto(raw[:]) // in range: checked above
	sum := pseudoHeaderSum(src, dst)
	sum.AddBytes(raw[:])
	sum = netbuf.Combine(sum, netbuf.PartialOfChain(payload))
	if sum.Fold() != 0xffff {
		t.ProtocolErrors++
		return header{}, false
	}
	return header{
		key: connKey{localAddr: dst, remoteAddr: src,
			localPort: binary.BigEndian.Uint16(raw[2:4]), remotePort: binary.BigEndian.Uint16(raw[0:2])},
		seq:   binary.BigEndian.Uint32(raw[4:8]),
		ack:   binary.BigEndian.Uint32(raw[8:12]),
		flags: raw[12],
	}, true
}

// receiveQuiet takes a data segment that crossed quiet (see pump) and holds
// it on its connection until its upcall's key has passed. It panics if the
// segment is not one the sender may mark quiet: a misprediction must not
// change results silently.
func (t *Transport) receiveQuiet(src, dst eth.Addr, payload *netbuf.Chain, upcall sim.Key) {
	h, ok := t.parse(src, dst, payload)
	c := t.conns[h.key]
	if !ok || h.flags != flagACK || payload.Len() == 0 || c == nil || !t.offloaded(dst) {
		panic(fmt.Sprintf("tcp: segment %d from %s on %s crossed quiet but cannot be deferred", h.seq, src, dst))
	}
	if c.qh > 0 && len(c.quiet) == cap(c.quiet) {
		c.quiet, c.qh = c.quiet[:copy(c.quiet, c.quiet[c.qh:])], 0
	}
	c.quiet = append(c.quiet, quietSeg{upcall: upcall, seq: h.seq, ack: h.ack, payload: payload})
}

// settle applies, in order, every segment received quiet whose upcall comes
// before the running event, once the node has handed over every frame
// delivered before it. It runs before anything reads the state they change:
// in handle, for the next segment, and in sendSegmentSeq, for its ack
// number. Not sooner: a segment the connection sends between a quiet
// segment's delivery and its upcall carries the ack number from before it.
func (c *Conn) settle() {
	c.t.node.HandOver()
	if c.qh < len(c.quiet) {
		c.applyDue()
	}
}

// applyDue is settle's loop over the segments received quiet.
func (c *Conn) applyDue() {
	eng := c.t.node.Eng
	run := eng.Running()
	for c.qh < len(c.quiet) {
		q := c.quiet[c.qh]
		if q.upcall.At == run.At && q.upcall.Posted == run.Posted {
			// Their order would turn on the sequence number the upcall
			// never took.
			panic(fmt.Sprintf("tcp: quiet segment %d's upcall ties the running event at %v", q.seq, run.At))
		}
		if !q.upcall.Before(run) {
			return
		}
		c.quiet[c.qh] = quietSeg{}
		if c.qh++; c.qh == len(c.quiet) {
			c.quiet, c.qh = c.quiet[:0], 0
		}
		c.apply(q, eng)
	}
}

// apply does what a quiet segment's upcall would have done: it is the fast
// path of recvData for a segment that triggers no ack. It panics if the
// segment's upcall would have done more, or if delivering it posted an
// event: it then ended an application message after all.
func (c *Conn) apply(q quietSeg, eng *sim.Engine) {
	if c.state != stateEstablished || q.seq != c.rcvNxt || len(c.oooQ) > 0 || c.delack != 0 ||
		seqLT(c.sndUna, q.ack) && seqLEQ(q.ack, c.sndNxt) {
		panic(fmt.Sprintf("tcp: quiet segment %d on %s:%d is not inert", q.seq, c.key.localAddr, c.key.localPort))
	}
	c.rcvNxt += uint32(q.payload.Len())
	c.delack = 1
	pending := eng.Pending()
	c.deliver(q.payload)
	if eng.Pending() != pending {
		panic(fmt.Sprintf("tcp: delivering quiet segment %d on %s:%d posted an event", q.seq, c.key.localAddr, c.key.localPort))
	}
}

// receive demuxes one segment.
func (t *Transport) receive(src, dst eth.Addr, payload *netbuf.Chain) {
	h, ok := t.parse(src, dst, payload)
	if !ok {
		payload.Release()
		return
	}
	key, seq, ack, flags := h.key, h.seq, h.ack, h.flags
	if !t.offloaded(dst) && payload.Len() > 0 {
		t.node.Copies.ChecksumBytes += uint64(payload.Len())
		t.node.Charge(t.node.Cost.ChecksumCost(payload.Len()), nil)
	}

	c, ok := t.conns[key]
	if !ok {
		if flags&flagSYN != 0 && flags&flagACK == 0 {
			t.acceptSyn(key, seq)
			payload.Release()
			return
		}
		// A stray non-SYN segment: usually a retransmission racing our
		// teardown. Answer with RST (unless it *is* an RST) so the peer
		// stops retrying instead of backing off to its abort limit.
		t.StraySegments++
		if flags&flagRST == 0 {
			t.sendSeg(key, ack, seq+uint32(payload.Len()), flagRST|flagACK, nil)
		}
		payload.Release()
		return
	}
	c.handle(flags, seq, ack, payload)
}

// acceptSyn creates a passive connection if a listener exists; connection
// attempts to closed ports are refused with RST.
func (t *Transport) acceptSyn(key connKey, seq uint32) {
	accept, ok := t.listeners[key.localPort]
	if !ok {
		t.sendSeg(key, 0, seq+1, flagRST|flagACK, nil)
		return
	}
	c := newConn(t, key, stateSynRcvd)
	c.rcvNxt = seq + 1
	t.conns[key] = c
	c.acceptFn = accept
	c.retain(c.sndNxt, 1, flagSYN|flagACK, nil)
	c.sendSegment(flagSYN|flagACK, nil)
	c.armRTO()
}

// handle advances the connection state machine for one segment.
func (c *Conn) handle(flags uint8, seq, ack uint32, payload *netbuf.Chain) {
	c.settle()
	t := c.t
	if flags&flagRST != 0 {
		payload.Release()
		if c.state == stateSynSent {
			c.abort(ErrNoSuchRemote, false)
		} else {
			c.abort(ErrConnReset, false)
		}
		return
	}
	switch c.state {
	case stateSynSent:
		if flags&(flagSYN|flagACK) == flagSYN|flagACK {
			c.rcvNxt = seq + 1
			c.sndUna = ack
			c.ackRtx(ack)
			c.state = stateEstablished
			c.sendSegmentSeq(flagACK, c.sndNxt, nil)
			if c.onEstab != nil {
				cb := c.onEstab
				c.onEstab = nil
				cb(c, nil)
			}
			c.pump()
		}
		payload.Release()
		return
	case stateSynRcvd:
		if flags&flagACK != 0 {
			c.sndUna = ack
			c.ackRtx(ack)
			c.state = stateEstablished
			if c.acceptFn != nil {
				fn := c.acceptFn
				c.acceptFn = nil
				fn(c)
			}
		}
		// Fall through to process any data on the ACK.
	case stateClosed:
		payload.Release()
		return
	}

	if flags&flagSYN != 0 {
		// Duplicate SYN or SYN|ACK after we are established: our previous
		// ack was lost. Re-ack so the peer's handshake completes too.
		t.DupSegments++
		payload.Release()
		c.sendAck()
		return
	}

	if flags&flagACK != 0 {
		if seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndNxt) {
			c.sndUna = ack
			c.ackRtx(ack)
			c.pump()
		} else if ack == c.sndUna && payload.Len() == 0 && len(c.rtxQ) > 0 && c.state == stateEstablished {
			// Pure duplicate ack: the receiver is seeing a gap — unless it
			// is seeing the copies of a resend (see recover).
			if !c.recovering {
				c.dupAcks++
			}
			if c.dupAcks == dupAckThreshold {
				c.dupAcks = 0
				c.fastRetransmit()
			}
		}
	}

	if payload.Len() > 0 {
		c.recvData(flags, seq, payload)
	} else {
		payload.Release()
	}
}

// recvData accepts one data segment: in-order delivery, duplicate
// suppression, or bounded out-of-order buffering with an immediate
// duplicate ack to trigger the sender's fast retransmit.
func (c *Conn) recvData(flags uint8, seq uint32, payload *netbuf.Chain) {
	t := c.t
	if seq == c.rcvNxt && len(c.oooQ) == 0 {
		// Fast path (the only path on a lossless fabric): deliver and run
		// the delayed-ack clock exactly as before.
		c.rcvNxt += uint32(payload.Len())
		c.deliver(payload)
		c.delack++
		if c.delack >= 2 || flags&flagPSH != 0 {
			c.delack = 0
			c.sendSegmentSeq(flagACK, c.sndNxt, nil)
		}
		return
	}
	end := seq + uint32(payload.Len())
	if seqLEQ(end, c.rcvNxt) {
		// Wholly duplicate: suppress, but re-ack so the sender advances.
		t.DupSegments++
		payload.Release()
		c.sendAck()
		return
	}
	if seqLT(c.rcvNxt, seq) {
		// Beyond a gap: buffer (or shed) and send a duplicate ack.
		c.bufferOOO(seq, flags, payload)
		c.sendAck()
		return
	}
	// In-order head, possibly with a duplicate prefix to trim; afterwards
	// drain whatever buffered segments the fill made contiguous.
	if seqLT(seq, c.rcvNxt) {
		t.DupSegments++
		trim, _ := payload.PullChain(int(c.rcvNxt - seq)) // in range: end is past rcvNxt
		trim.Release()
	}
	c.rcvNxt = end
	c.deliver(payload)
	c.drainOOO()
	c.sendAck()
}

// bufferOOO inserts one out-of-order segment into the sorted reassembly
// queue, suppressing exact duplicates and shedding beyond maxOOO.
func (c *Conn) bufferOOO(seq uint32, flags uint8, payload *netbuf.Chain) {
	t := c.t
	i := 0
	for ; i < len(c.oooQ); i++ {
		if seq == c.oooQ[i].seq {
			t.DupSegments++
			payload.Release()
			return
		}
		if seqLT(seq, c.oooQ[i].seq) {
			break
		}
	}
	if len(c.oooQ) >= maxOOO {
		t.OutOfOrderDrops++
		payload.Release()
		return
	}
	t.OutOfOrder++
	c.oooQ = append(c.oooQ, oooSeg{})
	copy(c.oooQ[i+1:], c.oooQ[i:])
	c.oooQ[i] = oooSeg{seq: seq, flags: flags, payload: payload}
}

// drainOOO delivers buffered segments made contiguous by a gap fill.
func (c *Conn) drainOOO() {
	t := c.t
	for len(c.oooQ) > 0 {
		e := c.oooQ[0]
		if seqLT(c.rcvNxt, e.seq) {
			return
		}
		copy(c.oooQ, c.oooQ[1:])
		c.oooQ[len(c.oooQ)-1] = oooSeg{}
		c.oooQ = c.oooQ[:len(c.oooQ)-1]
		end := e.seq + uint32(e.payload.Len())
		if seqLEQ(end, c.rcvNxt) {
			t.DupSegments++
			e.payload.Release()
			continue
		}
		if seqLT(e.seq, c.rcvNxt) {
			trim, _ := e.payload.PullChain(int(c.rcvNxt - e.seq)) // in range: end is past rcvNxt
			trim.Release()
		}
		c.rcvNxt = end
		c.deliver(e.payload)
	}
}

// deliver hands one in-order chain to the application.
func (c *Conn) deliver(payload *netbuf.Chain) {
	if c.receiver != nil {
		c.receiver(payload)
	} else {
		payload.Release()
	}
}

// abort tears the connection down, optionally notifying the peer with RST.
func (c *Conn) abort(err error, notifyPeer bool) {
	if c.state == stateClosed {
		return
	}
	c.t.AbortedConns++
	if notifyPeer {
		c.sendSegmentSeq(flagRST|flagACK, c.sndNxt, nil)
	}
	if c.state == stateSynSent && c.onEstab != nil {
		cb := c.onEstab
		c.onEstab = nil
		cb(nil, err)
	}
	c.teardown()
}

// teardown finalizes the connection and releases every retained buffer:
// the unsent queue, the retransmission queue, and the reassembly queue.
func (c *Conn) teardown() {
	if c.state == stateClosed {
		return
	}
	if c.qh < len(c.quiet) {
		// Its upcall would have found the connection gone.
		panic(fmt.Sprintf("tcp: %s:%d torn down ahead of a quiet segment's upcall", c.key.localAddr, c.key.localPort))
	}
	c.state = stateClosed
	c.cancelRTO()
	delete(c.t.conns, c.key)
	if c.sendQ != nil {
		c.sendQ.Release()
		c.sendQ = nil
	}
	for i := range c.rtxQ {
		c.rtxQ[i].payload.Release()
		c.rtxQ[i] = rtxSeg{}
	}
	c.rtxQ = c.rtxQ[:0]
	for i := range c.oooQ {
		c.oooQ[i].payload.Release()
		c.oooQ[i] = oooSeg{}
	}
	c.oooQ = c.oooQ[:0]
}

// seqLEQ reports a <= b in sequence-number arithmetic.
func seqLEQ(a, b uint32) bool { return int32(b-a) >= 0 }

// seqLT reports a < b in sequence-number arithmetic.
func seqLT(a, b uint32) bool { return int32(b-a) > 0 }

// pseudoHeaderSum starts a checksum with the TCP pseudo-header. Length is
// omitted (both sides compute it the same way; the simulated fabric never
// truncates).
func pseudoHeaderSum(src, dst eth.Addr) netbuf.Partial {
	var s netbuf.Partial
	s.AddUint16(uint16(src >> 16))
	s.AddUint16(uint16(src))
	s.AddUint16(uint16(dst >> 16))
	s.AddUint16(uint16(dst))
	s.AddUint16(uint16(ipv4.ProtoTCP))
	return s
}
