// Package ipv4 implements the network layer of the simulated stack: header
// codec, MTU fragmentation and reassembly, and per-node demux to transport
// protocols.
//
// Fragmentation is zero-copy: an oversize datagram (an NFS read reply over
// UDP easily reaches 32 KB) is split into fragments whose buffers are windows
// onto the original chain's. This is load-bearing for NCache — a
// cached payload must reach the wire without any physical copy even when it
// spans many fragments.
package ipv4

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
)

// HeaderLen is the encoded size of the (option-less) IPv4 header.
const HeaderLen = 20

// Protocol numbers carried in the header.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// Errors returned by the codec.
var (
	ErrShortHeader = errors.New("ipv4: short header")
	ErrBadChecksum = errors.New("ipv4: header checksum mismatch")
	ErrBadVersion  = errors.New("ipv4: bad version")
)

// Header is an IPv4 packet header (no options).
type Header struct {
	TotalLen   uint16
	ID         uint16
	MoreFrags  bool
	FragOffset uint16 // in bytes; must be a multiple of 8
	TTL        uint8
	Proto      uint8
	Src        eth.Addr
	Dst        eth.Addr
}

// Push prepends the header, computing the header checksum, to the first
// buffer of the packet.
func (h Header) Push(pkt *netbuf.Chain) error {
	dst, err := pkt.PushFront(HeaderLen)
	if err != nil {
		return fmt.Errorf("ipv4 push: %w", err)
	}
	dst[0] = 0x45 // version 4, IHL 5
	dst[1] = 0
	binary.BigEndian.PutUint16(dst[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(dst[4:6], h.ID)
	frag := h.FragOffset / 8
	if h.MoreFrags {
		frag |= 0x2000
	}
	binary.BigEndian.PutUint16(dst[6:8], frag)
	dst[8] = h.TTL
	dst[9] = h.Proto
	dst[10], dst[11] = 0, 0
	binary.BigEndian.PutUint32(dst[12:16], uint32(h.Src))
	binary.BigEndian.PutUint32(dst[16:20], uint32(h.Dst))
	ck := netbuf.Sum(dst)
	binary.BigEndian.PutUint16(dst[10:12], ck)
	return nil
}

// Parse strips and validates the header from the packet.
func Parse(pkt *netbuf.Chain) (Header, error) {
	raw := pkt.Front()
	if len(raw) < HeaderLen {
		return Header{}, ErrShortHeader
	}
	raw = raw[:HeaderLen]
	if raw[0] != 0x45 {
		return Header{}, ErrBadVersion
	}
	var s netbuf.Partial
	s.AddBytes(raw)
	if s.Fold() != 0xffff {
		return Header{}, ErrBadChecksum
	}
	if _, err := pkt.PullFront(HeaderLen); err != nil {
		return Header{}, err
	}
	frag := binary.BigEndian.Uint16(raw[6:8])
	return Header{
		TotalLen:   binary.BigEndian.Uint16(raw[2:4]),
		ID:         binary.BigEndian.Uint16(raw[4:6]),
		MoreFrags:  frag&0x2000 != 0,
		FragOffset: (frag & 0x1fff) * 8,
		TTL:        raw[8],
		Proto:      raw[9],
		Src:        eth.Addr(binary.BigEndian.Uint32(raw[12:16])),
		Dst:        eth.Addr(binary.BigEndian.Uint32(raw[16:20])),
	}, nil
}
