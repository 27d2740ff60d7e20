// Package scsi implements the block-command subset the iSCSI transport
// carries: READ(10), WRITE(10) and READ CAPACITY(10) command descriptor
// blocks, plus minimal status/sense reporting.
package scsi

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// CDBLen is the length of the 10-byte CDBs used here (padded to 16 on the
// wire by iSCSI).
const CDBLen = 16

// Operation codes.
const (
	OpTestUnitReady  uint8 = 0x00
	OpRead10         uint8 = 0x28
	OpWrite10        uint8 = 0x2a
	OpReadCapacity10 uint8 = 0x25
)

// Status codes.
const (
	StatusGood           uint8 = 0x00
	StatusCheckCondition uint8 = 0x02
)

// ErrShortCDB reports a CDB or capacity record too short to decode.
var ErrShortCDB = errors.New("scsi: short CDB")

// CDB is a decoded command descriptor block.
type CDB struct {
	Op  uint8
	LBA uint32
	// Blocks is the transfer length in blocks (READ/WRITE).
	Blocks uint16
}

// Encode serializes the CDB into a 16-byte wire form.
func (c CDB) Encode() [CDBLen]byte {
	var b [CDBLen]byte
	b[0] = c.Op
	binary.BigEndian.PutUint32(b[2:6], c.LBA)
	binary.BigEndian.PutUint16(b[7:9], c.Blocks)
	return b
}

// DecodeCDB parses a wire-form CDB.
func DecodeCDB(p []byte) (CDB, error) {
	if len(p) < 10 {
		return CDB{}, fmt.Errorf("%w: %d bytes", ErrShortCDB, len(p))
	}
	return CDB{
		Op:     p[0],
		LBA:    binary.BigEndian.Uint32(p[2:6]),
		Blocks: binary.BigEndian.Uint16(p[7:9]),
	}, nil
}

// ReadCapacityData is the 8-byte READ CAPACITY(10) response payload.
type ReadCapacityData struct {
	// LastLBA is the address of the last block (NumBlocks-1).
	LastLBA uint32
	// BlockSize is the block length in bytes.
	BlockSize uint32
}

// Encode serializes the capacity data.
func (r ReadCapacityData) Encode() [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:4], r.LastLBA)
	binary.BigEndian.PutUint32(b[4:8], r.BlockSize)
	return b
}

// DecodeReadCapacity parses capacity data.
func DecodeReadCapacity(p []byte) (ReadCapacityData, error) {
	if len(p) < 8 {
		return ReadCapacityData{}, fmt.Errorf("%w: capacity data %d bytes", ErrShortCDB, len(p))
	}
	return ReadCapacityData{
		LastLBA:   binary.BigEndian.Uint32(p[0:4]),
		BlockSize: binary.BigEndian.Uint32(p[4:8]),
	}, nil
}
