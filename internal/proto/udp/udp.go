// Package udp implements the datagram transport the simulated NFS service
// runs on (the paper's NFS experiments use NFS-over-UDP). It exposes a
// socket-like API plus the extended zero-copy send path that the NCache
// kernel modification adds ("TCP/IP socket interfaces extended", Table 1):
// SendChain transmits a netbuf chain without copying payload bytes.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/simnet"
)

// HeaderLen is the encoded size of a UDP header.
const HeaderLen = 8

// ErrPortInUse reports a Bind on a port already bound.
var ErrPortInUse = errors.New("udp: port in use")

// Datagram is a received datagram with its addressing context.
type Datagram struct {
	Src     eth.Addr
	Dst     eth.Addr // the local address the datagram arrived on
	SrcPort uint16
	DstPort uint16
	// Payload holds the original wire buffers. Ownership contract: the
	// receiver owns the references and must Release the chain (or pass it
	// to an owner-taking API) exactly once; long-term retention goes
	// through SubChain/Clone aliasing.
	Payload *netbuf.Chain
}

// Receiver consumes inbound datagrams on a bound port.
type Receiver func(dg Datagram)

// Transport is a node's UDP layer.
type Transport struct {
	ip    *ipv4.Stack
	node  *simnet.Node
	ports map[uint16]Receiver
	// BadChecksums counts datagrams dropped for checksum mismatch.
	BadChecksums uint64
}

// NewTransport creates the UDP layer and registers it with the IP stack.
func NewTransport(ip *ipv4.Stack) *Transport {
	t := &Transport{
		ip:    ip,
		node:  ip.Node(),
		ports: make(map[uint16]Receiver),
	}
	ip.Register(ipv4.ProtoUDP, t.receive)
	return t
}

// Node returns the owning node.
func (t *Transport) Node() *simnet.Node { return t.node }

// IP returns the IP stack the transport rides.
func (t *Transport) IP() *ipv4.Stack { return t.ip }

// Bind installs a receiver for a local port.
func (t *Transport) Bind(port uint16, r Receiver) error {
	if _, busy := t.ports[port]; busy {
		return fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	t.ports[port] = r
	return nil
}

// SendChain transmits a payload already in network buffers without copying
// it — the extended socket interface. The transport takes ownership of the
// chain's references.
func (t *Transport) SendChain(src eth.Addr, srcPort uint16, dst eth.Addr, dstPort uint16, payload *netbuf.Chain) error {
	total := payload.Len() + HeaderLen
	if total > 0xffff {
		payload.Release()
		return fmt.Errorf("udp: datagram %d exceeds 64KB", total)
	}
	hb := t.node.HdrPool.Get()
	hdr, _ := hb.Push(HeaderLen) // HdrPool's headroom fits this and the IP and Ethernet headers
	binary.BigEndian.PutUint16(hdr[0:2], srcPort)
	binary.BigEndian.PutUint16(hdr[2:4], dstPort)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(total))
	binary.BigEndian.PutUint16(hdr[6:8], 0)

	// Transport checksum over pseudo-header + header + payload. The
	// payload walk is free on hardware with checksum offload; otherwise
	// it costs CPU — unless the chain carries an inherited partial from
	// the NCache substitution hook, in which case the sum was composed
	// from stored per-entry partials and no payload byte is touched.
	sum := pseudoHeaderSum(src, dst, uint16(total))
	sum.AddBytes(hdr)
	pay, inherited := payload.CachedPartial()
	if !inherited {
		pay = netbuf.PartialOfChain(payload)
	}
	sum = netbuf.Combine(sum, pay)
	ck := sum.Checksum()
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(hdr[6:8], ck)
	if !t.offloaded(src) && !inherited {
		t.node.Copies.ChecksumBytes += uint64(payload.Len())
		t.node.Charge(t.node.Cost.ChecksumCost(payload.Len()), nil)
	}

	// One chain, sized once, carries the header buffer and the payload.
	dg := t.node.TxPool.NewChain(1 + payload.NumBufs())
	dg.Append(hb)
	dg.AppendChain(payload)
	return t.ip.Send(src, dst, ipv4.ProtoUDP, dg)
}

// offloaded reports whether the NIC at the local address computes transport
// checksums in hardware.
func (t *Transport) offloaded(local eth.Addr) bool {
	for _, nic := range t.node.NICs() {
		if nic.Addr == local {
			return nic.ChecksumOffload
		}
	}
	return false
}

// receive validates and demuxes one reassembled datagram.
func (t *Transport) receive(src, dst eth.Addr, payload *netbuf.Chain) {
	if payload.Len() < HeaderLen {
		t.BadChecksums++
		payload.Release()
		return
	}
	var hdr [HeaderLen]byte
	raw := hdr[:]
	_ = payload.PullHeaderInto(raw) // in range: checked above
	srcPort := binary.BigEndian.Uint16(raw[0:2])
	dstPort := binary.BigEndian.Uint16(raw[2:4])
	length := binary.BigEndian.Uint16(raw[4:6])

	sum := pseudoHeaderSum(src, dst, length)
	sum.AddBytes(raw)
	sum = netbuf.Combine(sum, netbuf.PartialOfChain(payload))
	if sum.Fold() != 0xffff {
		t.BadChecksums++
		payload.Release()
		return
	}
	if !t.offloaded(dst) {
		t.node.Copies.ChecksumBytes += uint64(payload.Len())
		t.node.Charge(t.node.Cost.ChecksumCost(payload.Len()), nil)
	}

	r, ok := t.ports[dstPort]
	if !ok {
		payload.Release()
		return
	}
	r(Datagram{
		Src:     src,
		Dst:     dst,
		SrcPort: srcPort,
		DstPort: dstPort,
		Payload: payload,
	})
}

// pseudoHeaderSum starts a checksum with the UDP pseudo-header.
func pseudoHeaderSum(src, dst eth.Addr, length uint16) netbuf.Partial {
	var s netbuf.Partial
	s.AddUint16(uint16(src >> 16))
	s.AddUint16(uint16(src))
	s.AddUint16(uint16(dst >> 16))
	s.AddUint16(uint16(dst))
	s.AddUint16(uint16(ipv4.ProtoUDP))
	s.AddUint16(length)
	return s
}
