// Package netbuf implements the network buffer substrate that everything in
// this repository moves data through: an analogue of Linux sk_buff / BSD
// mbuf. A Buf owns a fixed backing array with reserved headroom so protocol
// layers can prepend headers without copying; a Chain strings windows onto
// Bufs together so a multi-kilobyte payload (an NFS read reply, an iSCSI
// data-in burst) lives as a list of MTU-sized buffers — the "network-ready
// format" the NCache paper caches data in.
//
// Bufs are reference counted. Go's garbage collector would reclaim them
// anyway, but the explicit count serves two purposes: recycling (the last
// Release returns a buffer to its pool, so leak checks can see what is still
// held) and sharing semantics (a cached chain is transmitted by copying its
// windows and taking a reference per buffer, never by copying payload bytes
// or allocating a descriptor, §4.1).
package netbuf

import (
	"errors"
	"fmt"
)

// Default geometry, matching the testbed in the paper: 1500-byte Ethernet
// MTU plus space for Ethernet/IP/UDP-or-TCP headers and a little slack.
const (
	// DefaultHeadroom reserves space for the deepest header stack:
	// Ethernet(14) + IPv4(20) + TCP(20) + RPC/iSCSI framing.
	DefaultHeadroom = 96
	// DefaultBufSize is the payload capacity of a standard receive buffer.
	DefaultBufSize = 1500
)

var (
	// ErrNoHeadroom reports a Push larger than the remaining headroom.
	ErrNoHeadroom = errors.New("netbuf: insufficient headroom")
	// ErrNoTailroom reports a Put larger than the remaining tailroom.
	ErrNoTailroom = errors.New("netbuf: insufficient tailroom")
	// ErrShortBuf reports a pull larger than the payload.
	ErrShortBuf = errors.New("netbuf: operation exceeds payload length")
)

// Buf is a single network buffer: a backing array with a movable payload
// window [head, tail).
//
// Ownership contract: a Buf is born with one reference, owned by whoever
// allocated it. Passing a Buf down a call that "takes ownership" transfers
// that reference; retaining a Buf beyond such a call requires Retain and a
// matching Release. Every window a chain holds onto a Buf owns one reference
// (see Window). Releasing the last reference recycles the buffer immediately
// — holding a Buf after its final Release is a use-after-free, not a
// harmless stale read.
//
// A Buf's own window is where its creator builds the first payload (a
// header, a block); once the Buf is in a chain, the chain's window is the
// payload and the Buf's own window is not read again.
type Buf struct {
	backing []byte
	head    int
	tail    int
	refs    int32
	// marked flags key-carrying junk out of band (see Mark); it fills the
	// padding after refs.
	marked bool
	pool   *Pool
	// owner tags the current long-term holder for leak reports ("ncache.lbn",
	// "sunrpc.retransmit", ...). Defaults to the pool name at Get.
	owner string
}

// New allocates a standalone Buf (not pool-managed) with the given headroom
// and size bytes of payload room. Its initial payload is empty.
func New(headroom, size int) *Buf {
	return &Buf{backing: make([]byte, headroom+size), head: headroom, tail: headroom, refs: 1}
}

// Bytes returns the current payload window. The slice aliases the buffer;
// callers must not retain it across Release.
func (b *Buf) Bytes() []byte { return b.backing[b.head:b.tail] }

// Len returns the payload length in bytes.
func (b *Buf) Len() int { return b.tail - b.head }

// Tailroom returns the bytes available for Put.
func (b *Buf) Tailroom() int { return len(b.backing) - b.tail }

// Push grows the payload at the front by n bytes and returns the newly
// exposed region, analogous to skb_push. Protocol layers write their header
// into the returned slice.
func (b *Buf) Push(n int) ([]byte, error) {
	if n < 0 || n > b.head {
		return nil, fmt.Errorf("%w: push %d, headroom %d", ErrNoHeadroom, n, b.head)
	}
	b.head -= n
	return b.backing[b.head : b.head+n], nil
}

// Put grows the payload at the back by n bytes, analogous to skb_put, and
// returns nil on success. The exposed region is Bytes()[Len()-n:].
func (b *Buf) Put(n int) error {
	if n < 0 || n > b.Tailroom() {
		return fmt.Errorf("%w: put %d, tailroom %d", ErrNoTailroom, n, b.Tailroom())
	}
	b.tail += n
	return nil
}

// Append copies p into the tailroom, growing the payload. It is a
// convenience for Put+copy.
func (b *Buf) Append(p []byte) error {
	if err := b.Put(len(p)); err != nil {
		return err
	}
	copy(b.backing[b.tail-len(p):b.tail], p)
	return nil
}

// Retain increments the reference count and returns b for chaining.
func (b *Buf) Retain() *Buf {
	b.refs++
	return b
}

// Mark sets the buffer's out-of-band flag. Package lkey calls it on the
// junk buffers it stamps; a pooled buffer loses the flag when it is reused.
func (b *Buf) Mark() { b.marked = true }

// SetOwner tags the buffer's long-term holder for leak reports.
func (b *Buf) SetOwner(owner string) { b.owner = owner }

// Release drops one ownership reference. When the count reaches zero the
// buffer returns to its pool, or a standalone buffer drops its backing and
// is left to the collector — from that point the caller must not touch it.
// Releasing an already-free buffer panics.
func (b *Buf) Release() {
	if b.refs <= 0 {
		recordDoubleFree(b)
	}
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.pool != nil {
		b.pool.put(b)
		return
	}
	b.backing = nil
}

// String summarizes the buffer geometry for debugging.
func (b *Buf) String() string {
	return fmt.Sprintf("Buf{len=%d headroom=%d tailroom=%d refs=%d}",
		b.Len(), b.head, b.Tailroom(), b.refs)
}
