package controlplane

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
)

// Port is the control-plane service's well-known UDP port.
const Port uint16 = 964

// MsgType enumerates the control-plane protocol messages.
type MsgType uint8

// Protocol messages. Register binds a front-end agent's return route;
// Remap/Invalidate/acks are the coherence protocol for FHO→LBN re-indexing
// across servers; Members is client-side routing. Codes 3 and 4 were the
// per-handle lookup and its response: they stay unassigned, so every other
// message keeps its value on the wire and a peer still sending one is
// counted as a protocol error.
const (
	MsgRegister MsgType = iota + 1
	MsgRegisterAck
	_
	_
	MsgRemap
	MsgRemapAck
	MsgInvalidate
	MsgInvalidateAck
	// MsgMembers asks for the active member set; the response carries one
	// packed (serverID<<32 | fabricAddr) entry per member in LBNs —
	// everything a client needs to replicate the placement locally and
	// answer FH lookups without a control-plane round trip. (Clients reach
	// servers by index, so the address half goes unread; it stays for wire
	// compatibility.)
	MsgMembers
	MsgMembersResp
)

// MaxLBNs bounds the block list of one remap/invalidate message; larger
// remap sets are chunked by the sender so every message fits one transmit
// buffer (and one datagram). A member set is not chunked, so it also bounds
// the servers one control plane can place.
const MaxLBNs = 128

// headerLen is the fixed encoded prefix:
// type(1) zero(1) server(2) from(2) zero(14) seq(8) zero(8) lbn(8) count(4).
// The zero bytes were the per-handle lookup's status, owner address and file
// handle, and (bytes 12–19) the placement epoch of a member set that could
// change; the header keeps its length without them.
const headerLen = 48

// Msg is one control-plane message. Fields are a union over the message
// types; unused fields encode as zero.
type Msg struct {
	Type MsgType
	// Server is the message's subject server index: the origin of a
	// remap/invalidate, the registrant.
	Server uint16
	// From is the sending server's index on acknowledgements.
	From uint16
	// Seq orders one server's remaps. (Server, Seq) identifies a remap
	// exactly, which is what makes retries idempotent.
	Seq  uint64
	LBN  int64
	LBNs []int64
}

// encodedLen is the message's frame body size.
func (m *Msg) encodedLen() int { return headerLen + 8*len(m.LBNs) }

// marshal writes the message body into dst (len(dst) == m.encodedLen()).
func (m *Msg) marshal(dst []byte) {
	clear(dst[:headerLen])
	dst[0] = byte(m.Type)
	binary.BigEndian.PutUint16(dst[2:4], m.Server)
	binary.BigEndian.PutUint16(dst[4:6], m.From)
	binary.BigEndian.PutUint64(dst[20:28], m.Seq)
	binary.BigEndian.PutUint64(dst[36:44], uint64(m.LBN))
	binary.BigEndian.PutUint32(dst[44:48], uint32(len(m.LBNs)))
	for i, l := range m.LBNs {
		binary.BigEndian.PutUint64(dst[headerLen+8*i:], uint64(l))
	}
}

// errShortMsg reports a truncated or oversized frame.
var errShortMsg = errors.New("controlplane: short message")

// unmarshal parses one frame body.
func unmarshal(p []byte) (Msg, error) {
	if len(p) < headerLen {
		return Msg{}, errShortMsg
	}
	m := Msg{
		Type:   MsgType(p[0]),
		Server: binary.BigEndian.Uint16(p[2:4]),
		From:   binary.BigEndian.Uint16(p[4:6]),
		Seq:    binary.BigEndian.Uint64(p[20:28]),
		LBN:    int64(binary.BigEndian.Uint64(p[36:44])),
	}
	count := int(binary.BigEndian.Uint32(p[44:48]))
	if count < 0 || count > MaxLBNs || len(p) < headerLen+8*count {
		return Msg{}, fmt.Errorf("%w: count %d in %d bytes", errShortMsg, count, len(p))
	}
	if count > 0 {
		m.LBNs = make([]int64, count)
		for i := range m.LBNs {
			m.LBNs[i] = int64(binary.BigEndian.Uint64(p[headerLen+8*i:]))
		}
	}
	return m, nil
}

// frameLenBytes prefixes every message on the wire: a datagram holds exactly
// one frame, its body length first.
const frameLenBytes = 4

// maxFrame is the largest frame: the prefix, the header and a full LBN list.
const maxFrame = frameLenBytes + headerLen + 8*MaxLBNs

// Encode renders a message as one length-prefixed frame in a pooled transmit
// buffer (owner "cp.msg" — transient control-message memory per the §9
// ownership table: the transport consumes and releases it on send).
func Encode(pool *netbuf.Pool, m Msg) (*netbuf.Chain, error) {
	n := m.encodedLen()
	var b *netbuf.Buf
	if pb, err := pool.Get(); err == nil {
		if pb.Tailroom() >= frameLenBytes+n {
			b = pb
		} else {
			pb.Release()
		}
	}
	if b == nil {
		b = netbuf.New(0, frameLenBytes+n)
	}
	if err := b.Put(frameLenBytes + n); err != nil {
		b.Release()
		return nil, err
	}
	p := b.Bytes()
	binary.BigEndian.PutUint32(p[0:4], uint32(n))
	m.marshal(p[4:])
	ch := netbuf.ChainOf(b)
	ch.SetOwner("cp.msg")
	return ch, nil
}

// decode parses one received datagram and releases it. It keeps nothing
// between datagrams: a runt, or a datagram whose length prefix disagrees with
// its size, is dropped alone. Control messages are header-only (no payload
// data rides them), so the parse copies the few dozen bytes out of the wire
// buffers — the zero-copy discipline applies to block payloads, not to the
// control plane.
func decode(dg *netbuf.Chain) (Msg, bool) {
	defer dg.Release()
	var raw [maxFrame]byte
	n := dg.Len()
	if n < frameLenBytes+headerLen || n > len(raw) {
		return Msg{}, false
	}
	dg.Gather(raw[:n])
	if int(binary.BigEndian.Uint32(raw[:])) != n-frameLenBytes {
		return Msg{}, false
	}
	m, err := unmarshal(raw[frameLenBytes:n])
	return m, err == nil
}

// sendMsg transmits m as one datagram.
func sendMsg(t *udp.Transport, src eth.Addr, srcPort uint16, dst eth.Addr, dstPort uint16, m Msg) error {
	ch, err := Encode(t.Node().TxPool, m)
	if err != nil {
		return err
	}
	return t.SendChain(src, srcPort, dst, dstPort, ch)
}

// endpoint is a host's socket to the control plane: an ephemeral UDP port that
// talks to the service port at cp and hears nobody else.
type endpoint struct {
	udp   *udp.Transport
	local eth.Addr
	cp    eth.Addr
	port  uint16
}

// openEndpoint binds the socket; handle receives every well-formed message
// the control plane sends to it.
func openEndpoint(t *udp.Transport, local, cp eth.Addr, handle func(Msg)) *endpoint {
	e := &endpoint{udp: t, local: local, cp: cp}
	e.port = t.BindEphemeral(func(dg udp.Datagram) {
		if dg.Src != cp || dg.SrcPort != Port {
			dg.Payload.Release()
			return
		}
		if m, ok := decode(dg.Payload); ok {
			handle(m)
		}
	})
	return e
}

// send transmits one message to the control plane.
func (e *endpoint) send(m Msg) error {
	return sendMsg(e.udp, e.local, e.port, e.cp, Port, m)
}
