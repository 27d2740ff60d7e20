package simnet

import (
	"fmt"

	"ncache/internal/netbuf"
)

// RxRing models a NIC's registered receive ring: a set of descriptors the
// driver posts, each naming a pool-owned buffer the device may DMA an
// arriving frame into. In the shared-memory simulation the "DMA" is an
// ownership exchange rather than a byte copy: the sender's buffer — whose
// payload the wire already clocked across, paying full serialization time —
// is adopted into the receiving node's pool (it *is* the registered buffer
// the frame landed in), and an empty replacement is lent back to the sender's
// pool so both sides keep circulating buffers. No simulated time or payload
// bytes move here, so results are bit-identical to the legacy by-reference
// delivery; what changes is ownership: received payloads are now accounted to
// the receiver, which is what lets NCache pin *its own node's* receive
// buffers (§4.1) instead of the sender's transmit pool.
//
// Clone descriptors are not adopted: their backing belongs to whoever holds
// the root (a cached chain transmitted by reference stays pinned at the
// cache). Standalone buffers (no pool) pass through unchanged.
type RxRing struct {
	nic *NIC
	// size is the number of posted descriptors; posted tracks how many are
	// currently free. The driver replenishes on exhaustion (counted in
	// Refills) rather than dropping — the fabric stays lossless so the
	// registered path is behaviorally identical to the legacy one.
	size   int
	posted int

	// FramesAdopted / BufsAdopted count delivery-time ownership transfers;
	// Passthrough counts delivered buffers that could not be adopted
	// (clones, standalone buffers). Refills counts on-demand descriptor
	// replenishments when the ring ran dry.
	FramesAdopted uint64
	BufsAdopted   uint64
	Passthrough   uint64
	Refills       uint64

	// releaseFn is the single func value installed as every adopted
	// buffer's recycle hook (allocated once, not per frame).
	releaseFn func(*netbuf.Buf)
}

// DefaultRxRingSize matches a typical e1000 receive ring.
const DefaultRxRingSize = 256

// newRxRing builds the ring for one NIC.
func newRxRing(nic *NIC, size int) *RxRing {
	if size <= 0 {
		size = DefaultRxRingSize
	}
	r := &RxRing{nic: nic, size: size, posted: size}
	r.releaseFn = r.bufReleased
	return r
}

// Outstanding returns the ring credits currently consumed by adopted buffers
// that have not yet been released back to their pool. Leak tests assert this
// returns to zero after a drained workload.
func (r *RxRing) Outstanding() int { return r.size - r.posted + int(r.Refills) }

// adopt runs the simulated receive DMA for one delivered frame: every
// unshared pool-owned buffer in the frame is re-homed into the receiving
// node's pool of matching geometry (RxPool for MTU-sized buffers, BlkPool
// for block-sized ones), consuming a ring credit until the buffer's last
// reference is released, and the adopting pool immediately lends an empty
// replacement back to the sender's pool.
func (r *RxRing) adopt(frame *netbuf.Chain) {
	node := r.nic.node
	adopted := false
	for _, b := range frame.Bufs() {
		src := b.Pool()
		if src == nil || b.Shared() {
			r.Passthrough++
			continue
		}
		dst := node.RxPool
		if !dst.Adopt(b) {
			dst = node.BlkPool
			if !dst.Adopt(b) {
				r.Passthrough++
				continue
			}
		}
		dst.Lend(src)
		if r.posted == 0 {
			// Ring exhausted: the driver replenishes instead of dropping,
			// keeping the fabric lossless (results stay bit-identical).
			r.Refills++
		} else {
			r.posted--
		}
		// A buffer forwarded wholesale from another node may still carry
		// that node's ring hook; fire it so the old ring's credit returns.
		if old := b.TakeRecycleHook(); old != nil {
			old(b)
		}
		b.OnRecycle(r.releaseFn)
		r.BufsAdopted++
		adopted = true
	}
	if adopted {
		r.FramesAdopted++
	}
}

// bufReleased returns a ring credit when an adopted buffer's last reference
// is dropped.
func (r *RxRing) bufReleased(*netbuf.Buf) {
	if r.posted < r.size {
		r.posted++
		return
	}
	// The credit belongs to an on-demand refill; retire it.
	if r.Refills > 0 {
		r.Refills--
	}
}

// String summarizes ring state for diagnostics.
func (r *RxRing) String() string {
	return fmt.Sprintf("rxring(%s size=%d outstanding=%d adopted=%d)",
		r.nic.Addr, r.size, r.Outstanding(), r.BufsAdopted)
}
