// Package lkey defines the in-band logical-copy keys at the heart of
// NCache. When the NCache module captures a payload into its network-centric
// cache, the upper layers (file-system buffer cache, NFS daemon, reply
// packets) carry only "a key and some junk data" (§3.2): a small marker
// stamped at the front of the otherwise meaningless block. Layers that do
// not interpret payloads move these markers around with 32-byte copies —
// the logical copying that replaces physical copying — and the driver-level
// hook recognizes them in outgoing packets to substitute the real data.
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

// Size is the encoded key size. Every logical block must be at least this
// large (file system blocks are 4 KB, so this never binds).
const Size = 40

// magic distinguishes key-carrying junk from real payload bytes. It is
// chosen to be vanishingly unlikely in real data; production NCache relies
// on out-of-band page flags instead, but the in-band form keeps this
// implementation self-contained and matches the paper's "key and junk"
// description.
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
	Flags uint8
	// LBN is the storage logical block number (valid when HasLBN).
	LBN int64
	// FH and Off identify a file block (valid when HasFHO).
	FH  FH
	Off uint64
	// SubOff is a byte offset within the cached block, used when a reply
	// carries only part of a block (unaligned NFS reads): substitution
	// splices entry[SubOff : SubOff+len] instead of the block head.
	SubOff uint32
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

// Parse decodes a key from the front of p. It reports false when p does not
// start with a key marker.
func Parse(p []byte) (Key, bool) {
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

// Stamp writes the key marker at the front of a block, turning it into a
// logical block. The rest of the block is left as junk.
func Stamp(dst []byte, k Key) {
	m := k.Marshal()
	copy(dst, m[:])
}

// FromChain peeks for a key at the front of a payload chain without
// consuming it.
func FromChain(c *netbuf.Chain) (Key, bool) {
	if c.Len() < Size {
		return Key{}, false
	}
	// Fast path: the key sits within the first non-empty buffer.
	for _, w := range c.Bufs() {
		if w.Len() == 0 {
			continue
		}
		if w.Len() >= Size {
			return Parse(w.Bytes())
		}
		break
	}
	head := make([]byte, Size)
	c.Gather(head)
	return Parse(head)
}

// StampChainPool builds a block-sized junk chain carrying the key — what
// logical data looks like on its way down the stack, before substitution —
// drawing the junk buffer from a pool (pooled buffers are zeroed on reuse, so
// the junk bytes match a fresh allocation). The single-buffer layout is
// load-bearing: the substitution hook parses one key per wire buffer, so a
// junk block must stay one buffer. It falls back to a fresh buffer when there
// is no pool or the block exceeds the pool's geometry.
func StampChainPool(p *netbuf.Pool, k Key, blockBytes int) *netbuf.Chain {
	b := p.GetSized(max(blockBytes, Size), netbuf.DefaultHeadroom)
	Stamp(b.Bytes(), k)
	return netbuf.ChainOf(b)
}
