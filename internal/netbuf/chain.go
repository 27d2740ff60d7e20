package netbuf

import "fmt"

// Window is one buffer of a chain: the span [head, tail) of a root Buf's
// backing array. It is a value, not an object — cloning a chain, carving a
// SubChain out of it or splitting it with PullChain copies windows and adds
// one reference to each root, so aliasing a payload allocates nothing. The
// window owns its reference: the chain holding it releases the root when the
// window leaves the chain.
type Window struct {
	root       *Buf
	head, tail int32
}

// Bytes returns the window's payload. The slice aliases the root's backing;
// callers must not retain it past the chain's Release.
func (w Window) Bytes() []byte { return w.root.backing[w.head:w.tail] }

// Len returns the window's payload length in bytes.
func (w Window) Len() int { return int(w.tail - w.head) }

// Marked returns the root's own payload when the root is marked (see
// Buf.Mark) and w starts where that payload does. Only headroom pushes,
// pulls and slices move a window's head, so no window onto an unmarked
// buffer, and no window starting inside a marked one, is marked.
func (w Window) Marked() ([]byte, bool) {
	if !w.root.marked || int(w.head) != w.root.head {
		return nil, false
	}
	return w.root.Bytes(), true
}

// window is the span b's creator built, as a chain's window onto b.
func (b *Buf) window() Window {
	return Window{root: b, head: int32(b.head), tail: int32(b.tail)}
}

// Chain is an ordered list of windows forming one logical payload — the unit
// NCache stores and substitutes. A 32 KB NFS read reply is a chain of ~22
// MTU-sized buffers exactly as it arrived from the wire.
type Chain struct {
	wins []Window
	// ck caches the chain's Internet-checksum partial when a producer
	// (the NCache substitution hook) already knows it — the paper's
	// checksum inheritance. Any mutation of the chain clears it.
	ck      Partial
	ckValid bool
	// freed marks a released chain: the struct has been recycled (or, in
	// debug mode, poisoned) and must not be touched again.
	freed bool
	// pool is where the chain's struct and slice retire on Release: the
	// pool it was built from. Every chain has one.
	pool *Pool
	// holder is the pool of the node holding the chain (Pool.ReleaseHeld):
	// its own pool, or the holder of the chain it was made from; nil on the
	// wire.
	holder *Pool
}

// SetHolder records p as the pool of the node now holding the chain (a NIC
// hands a frame it receives to its node's TxPool), or with p nil none: a
// frame on the wire.
func (c *Chain) SetHolder(p *Pool) { c.holder = p }

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

// NewChain returns an empty chain with room for n windows whose struct and
// slice recycle on p, for the node p belongs to. Callers own the returned
// chain until they hand it to an API documented to take ownership.
func (p *Pool) NewChain(n int) *Chain { return getChain(p, p, n) }

// ChainOf builds a chain on p from the given buffers, taking ownership of the
// callers' references: the buffers need not come from p (a standalone
// GetSized buffer does not), but the chain's struct and slice recycle there.
func (p *Pool) ChainOf(bufs ...*Buf) *Chain {
	c := getChain(p, p, len(bufs))
	for _, b := range bufs {
		c.wins = append(c.wins, b.window())
	}
	return c
}

// Views returns a chain of windows onto b's payload, each seg bytes but the
// last: the layout Pool.GetChain builds when it copies the payload onto a
// pool of seg-byte buffers, with no copy. The chain recycles on b's pool and
// is held there (see Pool.ReleaseHeld). It takes ownership of the caller's
// reference and adds one per further window; an empty payload yields one
// empty window, as GetChain's does.
func (b *Buf) Views(seg int) *Chain {
	k := max((b.Len()+seg-1)/seg, 1)
	c := getChain(b.pool, b.pool, k)
	b.refs += int32(k - 1)
	for i := range k {
		head := b.head + i*seg
		c.wins = append(c.wins, Window{root: b, head: int32(head), tail: int32(min(head+seg, b.tail))})
	}
	return c
}

// Append adds a buffer to the tail of the chain, taking ownership of the
// caller's reference.
func (c *Chain) Append(b *Buf) {
	c.invalidatePartial()
	c.reserve(1)
	c.wins = append(c.wins, b.window())
}

// AppendClone adds a copy of w — a window of another chain — to the tail of
// the chain with a reference of its own on w's root.
func (c *Chain) AppendClone(w Window) {
	c.invalidatePartial()
	w.root.Retain()
	c.reserve(1)
	c.wins = append(c.wins, w)
}

// reserve makes room for n more windows. A chain that outgrows its slice
// trades it for one of the size class that fits; no slice grows by append.
func (c *Chain) reserve(n int) {
	if len(c.wins)+n > cap(c.wins) {
		c.wins = c.pool.growWins(c.wins, len(c.wins)+n)
	}
}

// Bufs returns the chain's windows in order. Callers must not mutate the
// slice.
func (c *Chain) Bufs() []Window { return c.wins }

// NumBufs returns the number of windows in the chain.
func (c *Chain) NumBufs() int { return len(c.wins) }

// Len returns the total payload length across all windows.
func (c *Chain) Len() int {
	n := 0
	for _, w := range c.wins {
		n += w.Len()
	}
	return n
}

// Front returns the first window's payload (nil for an empty chain), where
// link and network headers sit; the slice aliases the chain.
func (c *Chain) Front() []byte {
	if len(c.wins) == 0 {
		return nil
	}
	return c.wins[0].Bytes()
}

// PushFront grows the first window by n bytes at the front and returns the
// exposed region for the caller's header — skb_push on a chain. A header is
// written only into backing no one else references: with NCACHE_NETBUF_DEBUG=1
// a push into a window whose root is shared panics.
func (c *Chain) PushFront(n int) ([]byte, error) {
	if len(c.wins) == 0 {
		return nil, fmt.Errorf("%w: push %d into an empty chain", ErrNoHeadroom, n)
	}
	w := &c.wins[0]
	if n < 0 || n > int(w.head) {
		return nil, fmt.Errorf("%w: push %d, headroom %d", ErrNoHeadroom, n, w.head)
	}
	if debugMode && w.root.refs > 1 {
		panic(fmt.Sprintf("netbuf: header push into shared backing (%s, owner %q)", w.root, w.root.owner))
	}
	c.invalidatePartial()
	w.head -= int32(n)
	return w.Bytes()[:n], nil
}

// PullFront strips n bytes from the front of the first window and returns
// them — skb_pull on a chain. The slice aliases the chain, so it is valid
// until the chain is released.
func (c *Chain) PullFront(n int) ([]byte, error) {
	if len(c.wins) == 0 || n < 0 || n > c.wins[0].Len() {
		return nil, fmt.Errorf("%w: pull %d, front len %d", ErrShortBuf, n, len(c.Front()))
	}
	c.invalidatePartial()
	w := &c.wins[0]
	p := w.Bytes()[:n]
	w.head += int32(n)
	return p, nil
}

// Gather copies the chain's payload into dst and returns the number of bytes
// written (a physical copy; callers charge CPU time accordingly).
func (c *Chain) Gather(dst []byte) int {
	n := 0
	for _, w := range c.wins {
		if n >= len(dst) {
			break
		}
		n += copy(dst[n:], w.Bytes())
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

// Clone returns a new chain with copies of c's windows, each holding its own
// reference on its root — the logical-copy transmit path. No payload bytes
// move and no descriptor is allocated; the clone recycles on c's pool.
func (c *Chain) Clone() *Chain {
	nc := getChain(c.pool, c.holder, len(c.wins))
	nc.wins = append(nc.wins, c.wins...)
	for _, w := range c.wins {
		w.root.Retain()
	}
	return nc
}

// SetOwner tags the root of every window in the chain with a long-term
// holder for leak reports.
func (c *Chain) SetOwner(owner string) {
	for _, w := range c.wins {
		w.root.SetOwner(owner)
	}
}

// Release drops every window's reference and retires the chain: the struct
// goes back to its pool's list and the window slice, its slots cleared, to
// the pool's list of its size class, so the caller must not touch c
// afterwards. Releasing a chain twice panics; releasing nil does nothing.
func (c *Chain) Release() {
	if c == nil {
		return
	}
	if c.freed {
		recordChainDoubleFree(c)
	}
	c.invalidatePartial()
	for _, w := range c.wins {
		w.root.Release()
	}
	clear(c.wins)
	putChain(c)
}

// PullHeaderInto removes the first len(dst) payload bytes from the chain and
// copies them to dst — a stack array at every fixed-size call site, so a pull
// never allocates. Fully consumed windows (including leading empty header
// windows left behind by lower layers) are released and removed from the
// chain. The copy is load-bearing: releasing a drained window can return its
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
		w := &c.wins[0]
		k := min(w.Len(), len(dst)-got)
		got += copy(dst[got:], w.Bytes()[:k])
		w.head += int32(k)
	}
	return nil
}

// PullChain removes the first n payload bytes from the chain and returns
// them as a new chain on c's pool, without copying payload: whole windows
// move across, and a window split by the boundary is copied into both
// chains with adjusted spans and one more reference on its root. This is the
// primitive streams (TCP reassembly, iSCSI PDU framing) consume data with.
func (c *Chain) PullChain(n int) (*Chain, error) {
	c.invalidatePartial()
	if n < 0 || n > c.Len() {
		return nil, fmt.Errorf("netbuf: pull chain %d, chain len %d", n, c.Len())
	}
	// Size the output once: one window per non-empty window the bytes span.
	k := 0
	for j, left := 0, n; left > 0; j++ {
		if l := c.wins[j].Len(); l > 0 {
			k++
			left -= l
		}
	}
	out := getChain(c.pool, c.holder, k)
	remaining := n
	i := 0 // windows consumed from the head: moved to out, or empty and released
	for remaining > 0 {
		w := &c.wins[i]
		switch {
		case w.Len() == 0:
			w.root.Release()
			i++
		case w.Len() <= remaining:
			out.wins = append(out.wins, *w)
			remaining -= w.Len()
			i++
		default:
			split := w.head + int32(remaining)
			out.AppendClone(Window{root: w.root, head: w.head, tail: split})
			w.head = split
			remaining = 0
		}
	}
	c.dropFront(i)
	c.compact()
	return out, nil
}

// compact releases and removes leading zero-length windows.
func (c *Chain) compact() {
	k := 0
	for k < len(c.wins) && c.wins[k].Len() == 0 {
		c.wins[k].root.Release()
		k++
	}
	c.dropFront(k)
}

// dropFront removes the first k windows, which the caller has already
// released or handed off. The tail is copied down and the vacated slots
// zeroed — never c.wins = c.wins[k:] — so a chain drained from the head keeps
// its full slice capacity and pins no stale root: every slot past len is
// zero, which is what lets Release clear only the live ones.
func (c *Chain) dropFront(k int) {
	if k == 0 {
		return
	}
	n := copy(c.wins, c.wins[k:])
	clear(c.wins[n:])
	c.wins = c.wins[:n]
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
	for ci < len(c.wins) && co < len(o.wins) {
		a := c.wins[ci].Bytes()
		b := o.wins[co].Bytes()
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
	// Skip trailing empty windows.
	for ci < len(c.wins) && c.wins[ci].Len() == bi {
		ci++
		bi = 0
	}
	for co < len(o.wins) && o.wins[co].Len() == bo {
		co++
		bo = 0
	}
	return ci == len(c.wins) && co == len(o.wins)
}

// String summarizes the chain for debugging.
func (c *Chain) String() string {
	return fmt.Sprintf("Chain{bufs=%d len=%d}", len(c.wins), c.Len())
}
