// Package iscsi implements the storage transport between the pass-through
// server and the storage server: a faithful subset of iSCSI with 48-byte
// Basic Header Segments, login/logout, SCSI command PDUs with immediate
// write data, and Data-In PDUs carrying read payloads.
//
// Data segments are netbuf chains end to end: a Data-In payload arriving at
// the initiator is the original wire buffers, which is precisely what the
// NCache module captures into its LBN cache; a WRITE command's data segment
// is sent with the zero-copy socket extension.
package iscsi

import (
	"encoding/binary"
	"fmt"

	"ncache/internal/netbuf"
)

// BHSLen is the Basic Header Segment length.
const BHSLen = 48

// Port is the well-known iSCSI target port.
const Port = 3260

// Opcodes (initiator-to-target carry no 0x20 bit; responses do).
const (
	OpNopOut     uint8 = 0x00
	OpSCSICmd    uint8 = 0x01
	OpLoginReq   uint8 = 0x03
	OpLogoutReq  uint8 = 0x06
	OpNopIn      uint8 = 0x20
	OpSCSIResp   uint8 = 0x21
	OpLoginResp  uint8 = 0x23
	OpDataIn     uint8 = 0x25
	OpLogoutResp uint8 = 0x26
)

// Flag bits in byte 1.
const (
	FlagFinal  uint8 = 0x80
	FlagStatus uint8 = 0x01 // Data-In carries status (phase collapse)
)

// PDU is one iSCSI protocol data unit.
type PDU struct {
	Op        uint8
	Final     bool
	HasStatus bool
	Status    uint8
	LUN       uint64
	// ITT is the initiator task tag matching commands to responses.
	ITT uint32
	// ExpectedLen is the expected data transfer length of a command.
	ExpectedLen uint32
	// CmdSN orders commands; StatSN orders responses.
	CmdSN uint32
	// BufferOffset locates a Data-In segment within the transfer.
	BufferOffset uint32
	// CDB is the SCSI command block (commands only).
	CDB [16]byte
	// Data is the data segment; ownership transfers with the PDU. May be
	// nil.
	Data *netbuf.Chain
}

// DataLen returns the data segment length.
func (p *PDU) DataLen() int {
	if p.Data == nil {
		return 0
	}
	return p.Data.Len()
}

// EncodePool renders the PDU as a transmit chain: a header buffer followed by
// the data segment's buffers (not copied). Data segments are padded to 4
// bytes; block-sized storage payloads are already aligned so padding is the
// exception, not the rule. The header (and pad) buffers come from the
// sending node's header pool, as does the chain, so the steady-state PDU
// path allocates nothing.
func (p *PDU) EncodePool(pool *netbuf.Pool) (*netbuf.Chain, error) {
	dlen := p.DataLen()
	if dlen > 0xffffff {
		return nil, fmt.Errorf("iscsi: data segment %d exceeds 16MB", dlen)
	}
	hb := pool.GetSized(BHSLen, netbuf.DefaultHeadroom)
	h := hb.Bytes()
	for i := range h {
		h[i] = 0
	}
	h[0] = p.Op
	if p.Final {
		h[1] |= FlagFinal
	}
	if p.HasStatus {
		h[1] |= FlagStatus
		h[3] = p.Status
	}
	h[4] = 0 // TotalAHSLength
	h[5] = byte(dlen >> 16)
	h[6] = byte(dlen >> 8)
	h[7] = byte(dlen)
	binary.BigEndian.PutUint64(h[8:16], p.LUN)
	binary.BigEndian.PutUint32(h[16:20], p.ITT)
	binary.BigEndian.PutUint32(h[20:24], p.ExpectedLen)
	binary.BigEndian.PutUint32(h[24:28], p.CmdSN)
	binary.BigEndian.PutUint32(h[28:32], p.BufferOffset)
	copy(h[32:48], p.CDB[:])

	wins := 2 // the header and a pad
	if p.Data != nil {
		wins += p.Data.NumBufs()
	}
	out := pool.NewChain(wins)
	out.Append(hb)
	out.AppendChain(p.Data)
	if pad := (4 - dlen%4) % 4; pad != 0 {
		out.Append(pool.GetSized(pad, netbuf.DefaultHeadroom))
	}
	return out, nil
}

// decodeBHS parses a 48-byte header.
func decodeBHS(h []byte) (PDU, int) {
	dlen := int(h[5])<<16 | int(h[6])<<8 | int(h[7])
	p := PDU{
		Op:           h[0],
		Final:        h[1]&FlagFinal != 0,
		HasStatus:    h[1]&FlagStatus != 0,
		Status:       h[3],
		LUN:          binary.BigEndian.Uint64(h[8:16]),
		ITT:          binary.BigEndian.Uint32(h[16:20]),
		ExpectedLen:  binary.BigEndian.Uint32(h[20:24]),
		CmdSN:        binary.BigEndian.Uint32(h[24:28]),
		BufferOffset: binary.BigEndian.Uint32(h[28:32]),
	}
	copy(p.CDB[:], h[32:48])
	return p, dlen
}

// Framer reassembles PDUs from a TCP byte stream without copying data
// segments: whole PDUs are carved out of the accumulated chain with
// PullChain.
type Framer struct {
	stream *netbuf.Chain
	// Emit receives each complete PDU; it owns pdu.Data.
	Emit func(p PDU)
	// Errors counts malformed stream states.
	Errors uint64

	// pending is a header whose data segment has not all arrived yet (valid
	// while havePending), pendingDataLen its unpadded data segment length.
	pending        PDU
	havePending    bool
	pendingDataLen int
}

// NewFramer returns a framer delivering PDUs to emit. The PDUs' data chains
// recycle on pool, the receiving node's.
func NewFramer(pool *netbuf.Pool, emit func(p PDU)) *Framer {
	return &Framer{stream: pool.NewChain(0), Emit: emit}
}

// Push appends stream data (ownership transfers) and emits any complete
// PDUs.
func (f *Framer) Push(data *netbuf.Chain) {
	f.stream.AppendChain(data)
	for {
		if !f.havePending {
			if f.stream.Len() < BHSLen {
				return
			}
			var bhs [BHSLen]byte
			_ = f.stream.PullHeaderInto(bhs[:]) // in range: checked above
			f.pending, f.pendingDataLen = decodeBHS(bhs[:])
			f.havePending = true
		}
		dlen := f.pendingDataLen
		padded := dlen + (4-dlen%4)%4
		if f.stream.Len() < padded {
			return
		}
		p := f.pending
		f.havePending = false
		f.pendingDataLen = 0
		if dlen > 0 {
			p.Data, _ = f.stream.PullChain(dlen) // in range: checked above
			if pad := padded - dlen; pad > 0 {
				padChain, _ := f.stream.PullChain(pad) // in range: checked above
				padChain.Release()
			}
		}
		f.Emit(p)
	}
}
