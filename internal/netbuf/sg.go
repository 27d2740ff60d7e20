package netbuf

import (
	"fmt"
	"slices"
)

// This file holds the scatter-gather view primitives: ways to read and slice
// a chain's payload without flattening it. They are what keeps
// payloads crossing protocol layers as buffer descriptors — the only
// physical copies left on the data path are the ones the paper's model
// charges (wire ingress and the disk image boundary).

// Range calls fn for each payload segment overlapping [off, off+n), in
// order, with a slice aliasing the buffer's bytes. fn returns false to stop
// early. No payload bytes are copied and no descriptors are allocated.
func (c *Chain) Range(off, n int, fn func(p []byte) bool) error {
	if off < 0 || n < 0 || off+n > c.Len() {
		return fmt.Errorf("netbuf: range [%d,%d) out of range 0..%d", off, off+n, c.Len())
	}
	pos := 0
	remaining := n
	for _, b := range c.bufs {
		if remaining == 0 {
			break
		}
		blen := b.Len()
		if pos+blen <= off {
			pos += blen
			continue
		}
		start := 0
		if off > pos {
			start = off - pos
		}
		take := blen - start
		if take > remaining {
			take = remaining
		}
		if take > 0 && !fn(b.Bytes()[start:start+take]) {
			return nil
		}
		remaining -= take
		pos += blen
	}
	return nil
}

// GatherRange copies the byte range [off, off+len(dst)) of the chain into
// dst and returns the number of bytes written (short when the chain ends
// first). It is Gather with an offset: a physical copy the caller charges,
// but with no descriptor clones along the way.
func (c *Chain) GatherRange(off int, dst []byte) int {
	if off < 0 || off >= c.Len() || len(dst) == 0 {
		return 0
	}
	n := len(dst)
	if off+n > c.Len() {
		n = c.Len() - off
	}
	got := 0
	_ = c.Range(off, n, func(p []byte) bool {
		got += copy(dst[got:], p)
		return true
	})
	return got
}

// SubChain returns a new chain aliasing the byte range [off, off+n) of c
// using cloned descriptors, without copying payload. It is the primitive
// behind block-aligned substitution when protocol block sizes mismatch
// (§3.5).
func (c *Chain) SubChain(off, n int) (*Chain, error) {
	if off < 0 || n < 0 || off+n > c.Len() {
		return nil, fmt.Errorf("netbuf: slice [%d,%d) out of range 0..%d", off, off+n, c.Len())
	}
	out := NewChain()
	remaining := n
	pos := 0
	for i, b := range c.bufs {
		if remaining == 0 {
			break
		}
		blen := b.Len()
		if pos+blen <= off {
			pos += blen
			continue
		}
		start := 0
		if off > pos {
			start = off - pos
		}
		take := blen - start
		if take > remaining {
			take = remaining
		}
		if len(out.bufs) == 0 {
			// Size the output once: at most the rest of c overlaps.
			out.bufs = slices.Grow(out.bufs, len(c.bufs)-i)
		}
		cl := b.Clone()
		if start > 0 {
			if _, err := cl.Pull(start); err != nil {
				cl.Release()
				out.Release()
				return nil, err
			}
		}
		if cl.Len() > take {
			if err := cl.Trim(cl.Len() - take); err != nil {
				cl.Release()
				out.Release()
				return nil, err
			}
		}
		out.Append(cl)
		remaining -= take
		pos += blen
	}
	return out, nil
}

// AppendChain moves every buffer of o to the tail of c and consumes o: a
// chain whose buffers have been taken is a retired chain, so o's struct goes
// back to the free list exactly as if released and the caller must not touch
// it again (in debug mode it is poisoned and a later Release panics). It
// replaces the per-buffer Append loop at every layer hand-off (no per-buffer
// slice growth beyond c's own). A nil o is a no-op.
func (c *Chain) AppendChain(o *Chain) {
	if o == nil {
		return
	}
	if o.freed {
		recordChainDoubleFree(o)
		return
	}
	if len(o.bufs) > 0 {
		c.invalidatePartial()
		c.bufs = append(c.bufs, o.bufs...)
		clear(o.bufs)
		o.bufs = o.bufs[:0]
	}
	putChain(o)
}
