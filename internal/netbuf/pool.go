package netbuf

import "fmt"

// Pool is an allocator of fixed-geometry network buffers, standing in for
// the device driver's buffer allocation in the paper. A pool is unbounded:
// Get never fails, and what a run pins shows in Outstanding and Peak rather
// than as an error. A buffer stays on the pool that made it until its last
// Release returns it there, wherever on the fabric that happens, so
// Outstanding counts what callers still hold.
// Fresh buffers are carved from slabs — one []Buf and one backing []byte
// each (see Slab) — and since a buffer never leaves its pool, a slab lives no
// longer than its buffers would; so are the structs and window slices of the
// pool's chains, which recycle on it too.
type Pool struct {
	name     string
	headroom int
	bufSize  int

	// The fields below are unsynchronised: a pool belongs to one node of one
	// cluster, and a cluster is only ever touched by one goroutine
	// (DESIGN.md §11).
	free        []*Buf
	bufs        Slab[Buf]  // fresh buffers
	mem         Slab[byte] // and their backing, carved in step
	outstanding int
	allocs      uint64
	reuses      uint64
	peak        int
	// live tracks every outstanding buffer in debug mode so leaks can be
	// attributed to their owner tags.
	live map[*Buf]struct{}
	// chains and wins recycle the structs and, by size class, the window
	// slices of the chains built from the pool (see getChain); the slabs
	// below carve them when those lists are empty.
	chains    []*Chain
	wins      [winClasses][][]Window
	made      []*Chain // every chain struct built from the pool (ReleaseHeld)
	chainSlab Slab[Chain]
	winSlabs  [winClasses]Slab[Window]
}

// NewPool returns a pool that dispenses buffers with the given headroom and
// payload capacity. The last argument is ignored: it is kept so that
// benchmarks/ncmark, which passes 0, compiles unchanged (DESIGN.md §11).
func NewPool(name string, headroom, bufSize, _ int) *Pool {
	if bufSize <= 0 {
		bufSize = DefaultBufSize
	}
	return &Pool{name: name, headroom: headroom, bufSize: bufSize}
}

// Get returns an empty buffer (payload window at the headroom mark).
func (p *Pool) Get() *Buf { return p.get(0) }

// GetSized returns a buffer holding n zero bytes of payload: a pooled one
// when p's buffers hold n bytes, otherwise a standalone buffer with the
// given headroom in front, which a chain on p (Pool.ChainOf) can carry.
func (p *Pool) GetSized(n, headroom int) *Buf {
	var b *Buf
	if n <= p.bufSize {
		b = p.Get()
	} else {
		b = New(headroom, n)
	}
	_ = b.Put(n) // either buffer has room for n bytes
	return b
}

// GetFill returns a buffer holding n payload bytes for a caller that
// overwrites all n before anyone reads them, as a disk read fills the extent
// it lands in: on a recycled buffer only the headroom and the tail past n
// are zeroed. n must fit the pool's buffers.
func (p *Pool) GetFill(n int) *Buf {
	b := p.get(n)
	b.tail += n
	return b
}

// get is Get for a caller about to overwrite the first fill payload bytes:
// a recycled buffer is zeroed everywhere else — headroom and the tail the
// fill does not cover — and those fill bytes are left for the caller.
func (p *Pool) get(fill int) *Buf {
	p.outstanding++
	if p.outstanding > p.peak {
		p.peak = p.outstanding
	}
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
		p.track(b)
		b.head = p.headroom
		b.tail = p.headroom
		b.refs = 1
		b.marked = false
		b.owner = p.name
		// A recycled buffer must never expose its previous owner's bytes
		// (requests are isolated): once the caller has written its fill,
		// a pooled buffer looks exactly like a fresh allocation.
		clear(b.backing[:p.headroom])
		clear(b.backing[p.headroom+fill:])
		return b
	}
	b := p.carve()
	p.track(b)
	return b
}

// carve takes a fresh buffer and its backing from the pool's slabs, which
// double in step. A buffer's backing is capped at its own bytes, so it can
// never reach a neighbour's.
func (p *Pool) carve() *Buf {
	p.allocs++
	b := p.bufs.New()
	*b = Buf{backing: p.mem.Carve(p.headroom + p.bufSize), head: p.headroom, tail: p.headroom, refs: 1, pool: p, owner: p.name}
	return b
}

// track records an outstanding buffer for debug-mode leak attribution.
func (p *Pool) track(b *Buf) {
	if !debugMode {
		return
	}
	if p.live == nil {
		p.live = make(map[*Buf]struct{})
	}
	p.live[b] = struct{}{}
}

// untrack forgets a buffer that returned to the free list or left the pool.
func (p *Pool) untrack(b *Buf) {
	if p.live != nil {
		delete(p.live, b)
	}
}

// GetChain returns a chain of pooled buffers carrying a copy of payload,
// segmented at the pool's buffer size: every buffer full but the last (one
// physical copy, no allocations in steady state). An empty payload yields a
// chain with one empty buffer. The chain is sized once for its buffers.
func (p *Pool) GetChain(payload []byte) *Chain {
	c := p.NewChain(max(p.buffers(len(payload)), 1))
	for off := 0; off < len(payload); off += p.bufSize {
		seg := payload[off:min(off+p.bufSize, len(payload))]
		b := p.get(len(seg))
		_ = b.Append(seg) // seg is at most bufSize bytes, so it fits
		c.Append(b)
	}
	if len(payload) == 0 {
		c.Append(p.Get())
	}
	return c
}

// GetZeroChain returns a chain of pooled buffers holding n zero bytes
// (pooled buffers are zeroed on reuse, so no bytes are touched here beyond
// window bookkeeping). The error is always nil: it is kept so that
// benchmarks/ncmark, which checks it, compiles unchanged (DESIGN.md §11).
// The chain is sized once for its buffers.
func (p *Pool) GetZeroChain(n int) (*Chain, error) {
	c := p.NewChain(p.buffers(n))
	for ; n > 0; n -= p.bufSize {
		b := p.Get()
		_ = b.Put(min(n, p.bufSize)) // at most bufSize bytes, so it fits
		c.Append(b)
	}
	return c, nil
}

// buffers is how many of the pool's buffers n payload bytes fill.
func (p *Pool) buffers(n int) int { return (n + p.bufSize - 1) / p.bufSize }

// put returns a buffer to the free list. Called from Buf.Release.
func (p *Pool) put(b *Buf) {
	p.outstanding--
	p.untrack(b)
	p.free = append(p.free, b)
}

// ReleaseHeld releases every live chain built from p that h's node holds
// (Chain.SetHolder). A kill calls it on every pool of the fabric, so what
// the dead process held, in any layer, goes back to the pool that built it.
func (p *Pool) ReleaseHeld(h *Pool) {
	for _, c := range p.made {
		if !c.freed && c.holder == h {
			c.Release()
		}
	}
}

// LeakReport lists the owner tags of outstanding buffers (debug mode only;
// returns nil otherwise). Tags repeat once per leaked buffer.
func (p *Pool) LeakReport() []string {
	if p.live == nil {
		return nil
	}
	var out []string
	for b := range p.live { // det:unordered — diagnostics only, sorted by callers that compare
		out = append(out, b.owner)
	}
	return out
}

// MustBeDrained panics when buffers are still outstanding, naming their
// owners in debug mode — the leak analogue of the debug-mode double-free
// panic. Tests call it at quiesce points.
func (p *Pool) MustBeDrained() {
	if p.outstanding == 0 {
		return
	}
	panic(fmt.Sprintf("netbuf: pool %q leaked %d buffers (owners %v)",
		p.name, p.outstanding, p.LeakReport()))
}

// Outstanding returns the number of buffers currently held by callers.
func (p *Pool) Outstanding() int { return p.outstanding }

// OutstandingBytes returns the pinned memory represented by outstanding
// buffers, counting full backing arrays as a driver would.
func (p *Pool) OutstandingBytes() int { return p.Outstanding() * (p.headroom + p.bufSize) }

// Peak returns the high-water mark of outstanding buffers.
func (p *Pool) Peak() int { return p.peak }

// Allocs returns the number of buffers carved fresh from slabs: the Get
// calls the free list could not satisfy.
func (p *Pool) Allocs() uint64 { return p.allocs }

// Reuses returns the number of Get calls satisfied from the free list.
func (p *Pool) Reuses() uint64 { return p.reuses }

// Name returns the pool's diagnostic name.
func (p *Pool) Name() string { return p.name }
