// Package eth implements the link-layer framing used on the simulated
// fabric. Addresses are 32-bit and double as network-layer addresses (the
// simulated LAN has no ARP; every node sits on one switch, as in the paper's
// testbed where all machines share a NetGear gigabit switch).
package eth

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ncache/internal/netbuf"
)

// HeaderLen is the encoded size of a link header.
const HeaderLen = 12

// Addr is a link/network address.
type Addr uint32

// Broadcast is the all-ones broadcast address.
const Broadcast Addr = 0xffffffff

// String formats the address dotted-quad style.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// EtherType identifies the payload protocol of a frame.
type EtherType uint16

// Assigned ethertypes for the simulated stack.
const (
	TypeIPv4 EtherType = 0x0800
)

// ErrShortHeader reports a frame too short to carry a link header.
var ErrShortHeader = errors.New("eth: short header")

// Header is a link-layer frame header.
type Header struct {
	Dst  Addr
	Src  Addr
	Type EtherType
	// Pad keeps the header length even so transport checksum inheritance
	// composes on 16-bit boundaries.
	Pad uint16
}

// Push prepends the header to the first buffer of the frame.
func (h Header) Push(frame *netbuf.Chain) error {
	dst, err := frame.PushFront(HeaderLen)
	if err != nil {
		return fmt.Errorf("eth push: %w", err)
	}
	binary.BigEndian.PutUint32(dst[0:4], uint32(h.Dst))
	binary.BigEndian.PutUint32(dst[4:8], uint32(h.Src))
	binary.BigEndian.PutUint16(dst[8:10], uint16(h.Type))
	binary.BigEndian.PutUint16(dst[10:12], h.Pad)
	return nil
}

// Parse strips and returns the header from the first buffer of the frame.
func Parse(frame *netbuf.Chain) (Header, error) {
	raw, err := frame.PullFront(HeaderLen)
	if err != nil {
		return Header{}, ErrShortHeader
	}
	return Header{
		Dst:  Addr(binary.BigEndian.Uint32(raw[0:4])),
		Src:  Addr(binary.BigEndian.Uint32(raw[4:8])),
		Type: EtherType(binary.BigEndian.Uint16(raw[8:10])),
		Pad:  binary.BigEndian.Uint16(raw[10:12]),
	}, nil
}

// Peek reads the header without consuming it, for switch forwarding.
func Peek(frame *netbuf.Chain) (Header, error) {
	raw := frame.Front()
	if len(raw) < HeaderLen {
		return Header{}, ErrShortHeader
	}
	return Header{
		Dst:  Addr(binary.BigEndian.Uint32(raw[0:4])),
		Src:  Addr(binary.BigEndian.Uint32(raw[4:8])),
		Type: EtherType(binary.BigEndian.Uint16(raw[8:10])),
		Pad:  binary.BigEndian.Uint16(raw[10:12]),
	}, nil
}
