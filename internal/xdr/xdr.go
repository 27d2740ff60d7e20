// Package xdr implements External Data Representation (RFC 4506) encoding,
// the wire format of ONC RPC and NFS. Everything is big-endian and padded to
// 4-byte alignment.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by the decoder.
var (
	ErrShort   = errors.New("xdr: buffer too short")
	ErrTooLong = errors.New("xdr: variable-length item exceeds limit")
)

// pad returns the number of padding bytes after n data bytes.
func pad(n int) int { return (4 - n%4) % 4 }

// Encoder serializes XDR items by appending to a byte slice: its own
// (NewEncoder), which grows, or the caller's (Over), which does not.
type Encoder struct {
	buf   []byte
	fixed bool // over the caller's slice: encoding past its length panics
}

// NewEncoder returns an encoder with the given capacity hint.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Over returns an encoder that writes into p from its start — in practice
// the tail of a pooled header buffer — so a message is encoded where it is
// sent, with no encoder object, scratch buffer or copy. Held as a local
// value the encoder itself does not allocate. (p should already live on the
// heap: the methods append through a pointer, so the compiler would move a
// stack array there.) The caller reserved len(p) bytes in the outgoing
// message before encoding; an item that does not fit would leave the
// message truncated with nothing to report it, so it panics instead.
func Over(p []byte) Encoder { return Encoder{buf: p[:0:len(p)], fixed: true} }

// room is the one place a sizing mistake at an Over call site surfaces.
func (e *Encoder) room(n int) {
	if e.fixed && len(e.buf)+n > cap(e.buf) {
		panic(fmt.Sprintf("xdr: encoding %d bytes at %d overruns the %d reserved", n, len(e.buf), cap(e.buf)))
	}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.room(4)
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 encodes a 64-bit unsigned hyper integer.
func (e *Encoder) Uint64(v uint64) {
	e.room(8)
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// FixedOpaque encodes fixed-length opaque data (no length prefix).
func (e *Encoder) FixedOpaque(p []byte) {
	e.room(len(p) + pad(len(p)))
	e.buf = append(e.buf, p...)
	e.buf = append(e.buf, zeros[:pad(len(p))]...)
}

// String encodes a string as variable-length opaque data.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.room(len(s) + pad(len(s)))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, zeros[:pad(len(s))]...)
}

// zeros is the alignment padding.
var zeros [3]byte

// Decoder deserializes XDR items from a byte slice.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over p.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the current decode position.
func (d *Decoder) Offset() int { return d.off }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, fmt.Errorf("%w: uint32 at %d", ErrShort, d.off)
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Uint64 decodes a 64-bit unsigned hyper integer.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, fmt.Errorf("%w: uint64 at %d", ErrShort, d.off)
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Opaque decodes variable-length opaque data of at most limit bytes
// (0 = unlimited). The returned slice aliases the decoder's buffer.
func (d *Decoder) Opaque(limit int) ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if limit > 0 && int(n) > limit {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLong, n, limit)
	}
	total := int(n) + pad(int(n))
	if d.Remaining() < total {
		return nil, fmt.Errorf("%w: opaque %d at %d", ErrShort, n, d.off)
	}
	p := d.buf[d.off : d.off+int(n)]
	d.off += total
	return p, nil
}
