// Package lkey defines the logical-copy keys at the heart of NCache. When
// the NCache module captures a payload into its network-centric cache, the
// upper layers (file-system buffer cache, NFS daemon, reply packets) carry
// only "a key and some junk data" (§3.2): a small marker stamped at the front
// of the otherwise meaningless block. Layers that do not interpret payloads
// move these markers around with key copies — the logical copying that
// replaces physical copying — and the driver-level hook recognizes them in
// outgoing packets to substitute the real data. A buffer is junk by an
// out-of-band mark, as in production NCache's page flags, never by its bytes.
//
// A key can carry an LBN (storage block number), an FHO (file handle +
// offset), or both: a block that was written by a client (FHO) and later
// flushed to storage (LBN) keeps both identities, and substitution consults
// the FHO cache first so clients always see the freshest data (§3.4).
package lkey

import (
	"bytes"
	"encoding/binary"

	"ncache/internal/netbuf"
)

// Size is the encoded key size: the bytes a stamp takes at the front of its
// junk buffer.
const Size = 40

// magic opens every stamp. It decides nothing — the buffer's mark does — but
// Of asserts it, so a marked buffer whose stamp was overwritten fails loudly
// instead of passing as data.
var magic = [8]byte{'N', 'C', 'L', 'K', 'E', 'Y', '0', '1'}

// Flags marking which identities a key carries.
const (
	HasLBN uint8 = 1 << 0
	HasFHO uint8 = 1 << 1
)

// FH is a fixed-size NFS file handle.
type FH [8]byte

// Key identifies a cached payload.
type Key struct {
	// LBN is the storage logical block number (valid when HasLBN).
	LBN int64
	// FH and Off identify a file block (valid when HasFHO).
	FH  FH
	Off uint64
	// SubOff is a byte offset within the cached block, used when a reply
	// carries only part of a block (unaligned NFS reads): substitution
	// splices entry[SubOff : SubOff+len] instead of the block head.
	SubOff uint32
	Flags  uint8
}

// WithSubOff returns a copy of k addressing a sub-range of the block.
func (k Key) WithSubOff(off uint32) Key {
	k.SubOff = off
	return k
}

// ForLBN returns a key carrying only a storage block identity.
func ForLBN(lbn int64) Key { return Key{Flags: HasLBN, LBN: lbn} }

// ForFHO returns a key carrying only a file-block identity.
func ForFHO(fh FH, off uint64) Key { return Key{Flags: HasFHO, FH: fh, Off: off} }

// WithLBN returns a copy of k that additionally carries an LBN identity
// (set on dirty FHO blocks when their storage location becomes known at
// flush/remap time).
func (k Key) WithLBN(lbn int64) Key {
	k.Flags |= HasLBN
	k.LBN = lbn
	return k
}

// Marshal encodes the key.
func (k Key) Marshal() [Size]byte {
	var out [Size]byte
	copy(out[0:8], magic[:])
	out[8] = k.Flags
	binary.BigEndian.PutUint32(out[12:16], k.SubOff)
	binary.BigEndian.PutUint64(out[16:24], uint64(k.LBN))
	copy(out[24:32], k.FH[:])
	binary.BigEndian.PutUint64(out[32:40], k.Off)
	return out
}

// parse decodes a key from the front of p. It reports false when p does not
// start with a key marker.
func parse(p []byte) (Key, bool) {
	if len(p) < Size || !bytes.Equal(p[0:8], magic[:]) {
		return Key{}, false
	}
	var k Key
	k.Flags = p[8]
	k.SubOff = binary.BigEndian.Uint32(p[12:16])
	k.LBN = int64(binary.BigEndian.Uint64(p[16:24]))
	copy(k.FH[:], p[24:32])
	k.Off = binary.BigEndian.Uint64(p[32:40])
	return k, true
}

// Of returns the key a window carries: false, without reading a byte, unless
// the window starts a buffer StampChainPool built. The key is parsed from
// that buffer's own stamp, so a window shorter than Size still carries it.
// A marked buffer without a stamp panics.
func Of(w netbuf.Window) (Key, bool) {
	p, ok := w.Marked()
	if !ok {
		return Key{}, false
	}
	k, ok := parse(p)
	if !ok {
		panic("lkey: a marked buffer has lost its key")
	}
	return k, true
}

// StampChainPool builds an n-byte junk chain carrying the key — what logical
// data looks like on its way down the stack — and is the only place a buffer
// is marked. The chain is built on p, and so is its buffer when p fits it
// (pooled buffers are zeroed on reuse); the buffer holds at least the stamp,
// and a shorter block is a shorter window onto it. A junk block stays one
// buffer: the hooks read one key per window.
func StampChainPool(p *netbuf.Pool, k Key, n int) *netbuf.Chain {
	b := p.GetSized(max(n, Size), netbuf.DefaultHeadroom)
	m := k.Marshal()
	copy(b.Bytes(), m[:])
	b.Mark()
	c := p.ChainOf(b)
	if n >= Size {
		return c
	}
	short, _ := c.SubChain(0, n) // n < Size = c.Len(): in range
	c.Release()
	return short
}
