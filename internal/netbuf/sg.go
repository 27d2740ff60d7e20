package netbuf

import "fmt"

// This file holds the scatter-gather view primitives: ways to read and slice
// a chain's payload without flattening it. They are what keeps
// payloads crossing protocol layers as windows onto the buffers they arrived
// in — the only
// physical copies left on the data path are the ones the paper's model
// charges (wire ingress and the disk image boundary).

// Range calls fn for each payload segment overlapping [off, off+n), in
// order, with a slice aliasing the buffer's bytes. No payload bytes are
// copied and nothing is allocated.
func (c *Chain) Range(off, n int, fn func(p []byte)) error {
	if off < 0 || n < 0 || off+n > c.Len() {
		return fmt.Errorf("netbuf: range [%d,%d) out of range 0..%d", off, off+n, c.Len())
	}
	pos := 0
	remaining := n
	for _, w := range c.wins {
		if remaining == 0 {
			break
		}
		wlen := w.Len()
		if pos+wlen <= off {
			pos += wlen
			continue
		}
		start := 0
		if off > pos {
			start = off - pos
		}
		take := min(wlen-start, remaining)
		if take > 0 {
			fn(w.Bytes()[start : start+take])
		}
		remaining -= take
		pos += wlen
	}
	return nil
}

// GatherRange copies the byte range [off, off+len(dst)) of the chain into
// dst and returns the number of bytes written (short when the chain ends
// first). It is Gather with an offset: a physical copy the caller charges,
// with no sub-chain carved along the way.
func (c *Chain) GatherRange(off int, dst []byte) int {
	if off < 0 || off >= c.Len() || len(dst) == 0 {
		return 0
	}
	n := len(dst)
	if off+n > c.Len() {
		n = c.Len() - off
	}
	got := 0
	_ = c.Range(off, n, func(p []byte) { got += copy(dst[got:], p) })
	return got
}

// SubChain returns a new chain aliasing the byte range [off, off+n) of c:
// one window per buffer the range overlaps, each with a reference of its own
// on its root, and no payload copied, recycled on c's pool. It is the
// primitive behind block-aligned substitution when protocol block sizes
// mismatch (§3.5).
func (c *Chain) SubChain(off, n int) (*Chain, error) {
	if off < 0 || n < 0 || off+n > c.Len() {
		return nil, fmt.Errorf("netbuf: slice [%d,%d) out of range 0..%d", off, off+n, c.Len())
	}
	if n == 0 {
		return getChain(c.pool, c.holder, 0), nil
	}
	// Skip the windows that end at or before off, then size the output once:
	// one window per window the range overlaps.
	i := 0
	for c.wins[i].Len() <= off {
		off -= c.wins[i].Len()
		i++
	}
	k := 0
	for left := off + n; left > 0; k++ {
		left -= c.wins[i+k].Len()
	}
	out := getChain(c.pool, c.holder, k)
	for _, w := range c.wins[i : i+k] {
		w.head += int32(off)
		take := min(w.Len(), n)
		w.tail = w.head + int32(take)
		out.AppendClone(w)
		n -= take
		off = 0
	}
	return out, nil
}

// AppendChain moves every window of o to the tail of c and consumes o: a
// chain whose windows have been taken is a retired chain, so o's struct and
// slice go back to o's pool exactly as if released and the caller
// must not touch it again (in debug mode it is poisoned and a later Release
// panics). It replaces the per-window Append loop at every layer hand-off (c
// grows at most once). A nil o is a no-op.
func (c *Chain) AppendChain(o *Chain) {
	if o == nil {
		return
	}
	if o.freed {
		recordChainDoubleFree(o)
	}
	if len(o.wins) > 0 {
		c.invalidatePartial()
		c.reserve(len(o.wins))
		c.wins = append(c.wins, o.wins...)
		clear(o.wins)
	}
	putChain(o)
}
