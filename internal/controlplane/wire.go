package controlplane

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
)

// Port is the control plane's well-known UDP port: the service binds it on
// the control node, and every front-end agent on its own server, so each end
// knows the other's address from the member set alone.
const Port uint16 = 964

// MsgType enumerates the control-plane protocol messages.
type MsgType uint8

// Protocol messages: Remap/Invalidate and their acks, the coherence protocol
// for FHO→LBN re-indexing across servers. Codes 1 and 2 were registration,
// 3 and 4 the per-handle lookup and its response, 9 and 10 the member-set
// fetch: they stay unassigned, so every surviving message keeps its value on
// the wire and a peer still sending a retired one is counted as a protocol
// error.
const (
	_ MsgType = iota + 1
	_
	_
	_
	MsgRemap
	MsgRemapAck
	MsgInvalidate
	MsgInvalidateAck
	_
	_
)

// MaxLBNs bounds the block list of one remap/invalidate message; larger
// remap sets are chunked by the sender so every message fits one transmit
// buffer (and one datagram).
const MaxLBNs = 128

// headerLen is the fixed encoded prefix:
// type(1) zero(1) server(2) from(2) zero(14) seq(8) zero(16) count(4).
// The zero bytes were the per-handle lookup's status, owner address and file
// handle, (bytes 12–19) the placement epoch of a member set that could change,
// and (bytes 36–43) an LBN no surviving message sets; the header keeps its
// length without them.
const headerLen = 48

// Msg is one control-plane message. Fields are a union over the message
// types; unused fields encode as zero.
type Msg struct {
	Type MsgType
	// Server is the message's subject server index: the origin of a
	// remap/invalidate.
	Server uint16
	// From is the sending server's index on acknowledgements.
	From uint16
	// Seq orders one server's remaps. (Server, Seq) identifies a remap
	// exactly, which is what makes retries idempotent.
	Seq  uint64
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
// ownership table: the transport consumes and releases it on send). A
// transmit buffer holds any frame up to maxFrame.
func Encode(pool *netbuf.Pool, m Msg) *netbuf.Chain {
	n := m.encodedLen()
	b := pool.GetSized(frameLenBytes+n, 0)
	p := b.Bytes()
	binary.BigEndian.PutUint32(p[0:4], uint32(n))
	m.marshal(p[4:])
	ch := netbuf.ChainOf(b)
	ch.SetOwner("cp.msg")
	return ch
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

// sendMsg transmits m as one datagram from Port to Port: the service and
// every agent are bound to it, each on its own node.
func sendMsg(t *udp.Transport, src, dst eth.Addr, m Msg) error {
	return t.SendChain(src, Port, dst, Port, Encode(t.Node().TxPool, m))
}
