package netbuf

import (
	"fmt"
	"slices"
)

// Chain is an ordered list of Bufs forming one logical payload — the unit
// NCache stores and substitutes. A 32 KB NFS read reply is a chain of ~22
// MTU-sized buffers exactly as it arrived from the wire.
type Chain struct {
	bufs []*Buf
	// ck caches the chain's Internet-checksum partial when a producer
	// (the NCache substitution hook) already knows it — the paper's
	// checksum inheritance. Any mutation of the chain clears it.
	ck      Partial
	ckValid bool
	// freed marks a released chain: the struct has been recycled (or, in
	// debug mode, poisoned) and must not be touched again.
	freed bool
}

// SetPartial records a precomputed checksum partial for the chain's current
// payload. The caller asserts it equals PartialOfChain(c).
func (c *Chain) SetPartial(p Partial) {
	c.ck = p
	c.ckValid = true
}

// CachedPartial returns the inherited checksum partial, if one is recorded.
func (c *Chain) CachedPartial() (Partial, bool) {
	return c.ck, c.ckValid
}

// invalidatePartial drops the cached checksum on mutation.
func (c *Chain) invalidatePartial() { c.ckValid = false }

// NewChain returns an empty chain. Chains are recycled through Release;
// callers own the returned chain until they hand it to an API documented to
// take ownership.
func NewChain() *Chain { return getChain() }

// ChainOf builds a chain from the given buffers. The chain takes ownership
// of the callers' references.
func ChainOf(bufs ...*Buf) *Chain {
	c := getChain()
	c.bufs = append(c.bufs, bufs...)
	return c
}

// ChainFromBytes splits p into standalone buffers of at most segSize payload
// bytes each, copying the data. It is used to synthesize on-the-wire data in
// tests and workload generators.
func ChainFromBytes(p []byte, segSize int) *Chain {
	if segSize <= 0 {
		segSize = DefaultBufSize
	}
	c := NewChain()
	for off := 0; off < len(p); off += segSize {
		end := off + segSize
		if end > len(p) {
			end = len(p)
		}
		c.Append(FromBytes(p[off:end]))
	}
	if len(p) == 0 {
		c.Append(FromBytes(nil))
	}
	return c
}

// Append adds a buffer to the tail of the chain, taking ownership of the
// caller's reference.
func (c *Chain) Append(b *Buf) {
	c.invalidatePartial()
	c.bufs = append(c.bufs, b)
}

// Bufs returns the underlying buffer slice. Callers must not mutate it.
func (c *Chain) Bufs() []*Buf { return c.bufs }

// NumBufs returns the number of buffers in the chain.
func (c *Chain) NumBufs() int { return len(c.bufs) }

// Len returns the total payload length across all buffers.
func (c *Chain) Len() int {
	n := 0
	for _, b := range c.bufs {
		n += b.Len()
	}
	return n
}

// Gather copies the chain's payload into dst and returns the number of bytes
// written (a physical copy; callers charge CPU time accordingly).
func (c *Chain) Gather(dst []byte) int {
	n := 0
	for _, b := range c.bufs {
		if n >= len(dst) {
			break
		}
		n += copy(dst[n:], b.Bytes())
	}
	return n
}

// Flatten returns the payload as a single newly allocated byte slice
// (physical copy).
func (c *Chain) Flatten() []byte {
	out := make([]byte, c.Len())
	c.Gather(out)
	return out
}

// Clone returns a new chain whose buffers are zero-copy clones of c's — the
// logical-copy transmit path. No payload bytes move.
func (c *Chain) Clone() *Chain {
	nc := getChain()
	nc.bufs = slices.Grow(nc.bufs, len(c.bufs))
	for _, b := range c.bufs {
		nc.bufs = append(nc.bufs, b.Clone())
	}
	return nc
}

// SetOwner tags every buffer in the chain with a long-term holder for leak
// reports (clone tags land on the roots, where the pinned memory is).
func (c *Chain) SetOwner(owner string) {
	for _, b := range c.bufs {
		b.SetOwner(owner)
	}
}

// Release drops one reference on every buffer and retires the chain: the
// struct is recycled for the next NewChain, so the caller must not touch c
// afterwards. Releasing a chain twice panics in debug mode and is otherwise
// recorded as a double free.
func (c *Chain) Release() {
	if c.freed {
		recordChainDoubleFree(c)
		return
	}
	c.invalidatePartial()
	for i, b := range c.bufs {
		b.Release()
		c.bufs[i] = nil
	}
	c.bufs = c.bufs[:0]
	putChain(c)
}

// PullHeaderInto removes the first len(dst) payload bytes from the chain and
// copies them to dst — a stack array at every fixed-size call site, so a pull
// never allocates. Fully consumed buffers (including leading empty header
// buffers left behind by lower layers) are released and removed from the
// chain. The copy is load-bearing: releasing a drained buffer can return its
// root to its pool, whose next Get recycles the backing array while the
// caller still holds the header, so the header must never alias the chain.
// Headers are small; this never copies payload-scale data.
func (c *Chain) PullHeaderInto(dst []byte) error {
	if len(dst) > c.Len() {
		return fmt.Errorf("netbuf: pull header %d, chain len %d", len(dst), c.Len())
	}
	c.invalidatePartial()
	c.compact()
	for got := 0; got < len(dst); c.compact() {
		b := c.bufs[0]
		p, err := b.Pull(min(b.Len(), len(dst)-got))
		if err != nil {
			return err
		}
		got += copy(dst[got:], p)
	}
	return nil
}

// PullChain removes the first n payload bytes from the chain and returns
// them as a new chain, without copying payload: whole buffers move across,
// and a buffer split by the boundary is cloned with adjusted windows. This
// is the primitive streams (TCP reassembly, iSCSI PDU framing) consume data
// with.
func (c *Chain) PullChain(n int) (*Chain, error) {
	c.invalidatePartial()
	if n < 0 || n > c.Len() {
		return nil, fmt.Errorf("netbuf: pull chain %d, chain len %d", n, c.Len())
	}
	out := NewChain()
	remaining := n
	i := 0 // buffers consumed from the head: moved to out, or empty and released
	for remaining > 0 {
		b := c.bufs[i]
		switch {
		case b.Len() == 0:
			b.Release()
			i++
		case b.Len() <= remaining:
			out.Append(b)
			remaining -= b.Len()
			i++
		default:
			// b holds more than remaining, so neither window move can fail.
			cl := b.Clone()
			_ = cl.Trim(cl.Len() - remaining)
			out.Append(cl)
			_, _ = b.Pull(remaining)
			remaining = 0
		}
	}
	c.dropFront(i)
	c.compact()
	return out, nil
}

// compact releases and removes leading zero-length buffers.
func (c *Chain) compact() {
	k := 0
	for k < len(c.bufs) && c.bufs[k].Len() == 0 {
		c.bufs[k].Release()
		k++
	}
	c.dropFront(k)
}

// dropFront removes the first k buffers, which the caller has already
// released or handed off. The tail is copied down and the vacated slots
// niled — never c.bufs = c.bufs[k:] — so a chain drained from the head keeps
// its full slice capacity for its next tenant and pins no stale descriptor.
func (c *Chain) dropFront(k int) {
	if k == 0 {
		return
	}
	n := copy(c.bufs, c.bufs[k:])
	clear(c.bufs[n:])
	c.bufs = c.bufs[:n]
}

// Equal reports whether two chains carry identical payload bytes
// (irrespective of buffer boundaries).
func (c *Chain) Equal(o *Chain) bool {
	if c.Len() != o.Len() {
		return false
	}
	// Compare without flattening both: walk in lockstep.
	ci, co := 0, 0
	bi, bo := 0, 0
	for ci < len(c.bufs) && co < len(o.bufs) {
		a := c.bufs[ci].Bytes()
		b := o.bufs[co].Bytes()
		for bi < len(a) && bo < len(b) {
			if a[bi] != b[bo] {
				return false
			}
			bi++
			bo++
		}
		if bi == len(a) {
			ci++
			bi = 0
		}
		if bo == len(b) {
			co++
			bo = 0
		}
	}
	// Skip trailing empty buffers.
	for ci < len(c.bufs) && c.bufs[ci].Len() == bi {
		ci++
		bi = 0
	}
	for co < len(o.bufs) && o.bufs[co].Len() == bo {
		co++
		bo = 0
	}
	return ci == len(c.bufs) && co == len(o.bufs)
}

// String summarizes the chain for debugging.
func (c *Chain) String() string {
	return fmt.Sprintf("Chain{bufs=%d len=%d}", len(c.bufs), c.Len())
}
