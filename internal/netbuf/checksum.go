package netbuf

import (
	"encoding/binary"
	"math/bits"
)

// Internet checksum (RFC 1071) over buffers and chains, with the incremental
// combination rules NCache relies on: a cached chain's payload checksum is
// computed once (or inherited from the originator's packets) and folded into
// each outgoing packet header instead of being recomputed per transmission.

// Partial is an un-folded ones'-complement sum that can be combined
// incrementally across buffer fragments. The accumulator is 64 bits wide
// with end-around carry: 2^64-1 is a multiple of 2^16-1, so a sum of
// big-endian 64-bit words folds to the same 16 bits as the sum of their
// 16-bit halves, eight bytes per step.
type Partial struct {
	sum uint64
	// odd tracks byte parity so fragments of odd length combine correctly.
	odd bool
}

// add64 is ones'-complement addition: the carry out wraps around.
func add64(a, b uint64) uint64 {
	s, c := bits.Add64(a, b, 0)
	return s + c
}

// AddBytes folds the bytes of p into the running sum.
func (s *Partial) AddBytes(p []byte) {
	if len(p) == 0 {
		return
	}
	sum := s.sum
	if s.odd {
		// The previous fragment ended mid-word: this byte is the low
		// half of the pending 16-bit word.
		sum = add64(sum, uint64(p[0]))
		p = p[1:]
		s.odd = false
	}
	// Four words a step, then one: the same carry chain either way.
	var c uint64
	for len(p) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p[8:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p[16:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p[24:]), c)
		p = p[32:]
	}
	for len(p) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p), c)
		p = p[8:]
	}
	// The last 0..7 bytes, left-aligned in a word as if zero-padded.
	var w uint64
	for i, b := range p {
		w |= uint64(b) << (56 - 8*i)
	}
	sum, c = bits.Add64(sum, w, c)
	s.sum = add64(sum, c)
	s.odd = len(p)%2 == 1
}

// AddUint16 folds a single big-endian word into the sum. It must only be
// called on an even byte boundary.
func (s *Partial) AddUint16(v uint16) {
	s.sum = add64(s.sum, uint64(v))
}

// Fold reduces the running sum to a 16-bit ones'-complement checksum
// (not yet inverted).
func (s *Partial) Fold() uint16 {
	v := s.sum
	for v > 0xffff {
		v = (v >> 16) + (v & 0xffff)
	}
	return uint16(v)
}

// Checksum returns the final inverted Internet checksum.
func (s *Partial) Checksum() uint16 { return ^s.Fold() }

// Sum computes the Internet checksum of a flat byte slice.
func Sum(p []byte) uint16 {
	var s Partial
	s.AddBytes(p)
	return s.Checksum()
}

// PartialOfChain returns the un-folded sum of a chain, suitable for
// inheritance: NCache stores this with each cached entry so the transport
// checksum of an outgoing packet is header-sum + stored payload-sum, never a
// re-walk of payload bytes.
func PartialOfChain(c *Chain) Partial {
	var s Partial
	for _, w := range c.wins {
		s.AddBytes(w.Bytes())
	}
	return s
}

// Combine merges two partial sums where b's data followed a's and a ended on
// an even byte boundary.
func Combine(a, b Partial) Partial {
	return Partial{sum: add64(a.sum, b.sum), odd: b.odd}
}
