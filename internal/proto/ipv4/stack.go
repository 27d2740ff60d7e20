package ipv4

import (
	"fmt"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// Handler consumes a reassembled datagram for one transport protocol. The
// payload chain's buffers are the original wire buffers (zero-copy
// reassembly). Ownership contract: the stack transfers the references to
// the handler, which must Release or forward them exactly once.
type Handler func(h Header, payload *netbuf.Chain)

// Stack is a node's network layer: it owns the receive path of every NIC on
// the node, demuxes to registered transports, fragments oversize datagrams
// on transmit, and reassembles on receive.
type Stack struct {
	node     *simnet.Node
	nics     map[eth.Addr]*simnet.NIC
	handlers map[uint8]Handler
	nextID   uint16
	reasm    map[flowKey]*reassembly
	// free is the free list of reassembly records (see reassembly).
	free netbuf.FreeList[reassembly]
	// receiveFn is s.receive bound once, so the per-packet path creates no
	// func value.
	receiveFn func(*netbuf.Chain)

	// ReasmErrors counts fragments that could not be reassembled
	// (out-of-order or inconsistent); the lossless fabric keeps this at
	// zero unless faults are injected.
	ReasmErrors uint64
	// ReasmDropped counts partial datagrams abandoned because a lost
	// fragment made completion impossible (a newer ID arrived on the flow,
	// or the reassembly timed out).
	ReasmDropped uint64
}

// ReasmTimeout bounds how long a partial datagram may wait for its next
// fragment. Fragments of one datagram arrive back-to-back within
// microseconds; a partial this stale lost a fragment and can never
// complete (the kernel's ip_frag_time serves the same purpose).
const ReasmTimeout = 50 * sim.Millisecond

// flowKey identifies one fragment stream. The fabric preserves per-flow
// ordering, so at most one datagram per flow is ever mid-reassembly; a
// fragment carrying a new IP ID obsoletes any older partial.
type flowKey struct {
	src, dst eth.Addr
	proto    uint8
}

// reassembly is the recycled record of one datagram mid-reassembly. It
// carries its flow key, and expire — the timeout's continuation — is bound
// once, when the record is first allocated. A record never leaves its Stack
// and retires on each of the three ways a reassembly ends: completed, evicted,
// expired. The first two Cancel the timer, and Engine.Cancel removes the
// event, so an expiry armed for one datagram cannot fire on the record's next;
// expire checks that the record still holds its flow all the same. In netbuf
// debug mode a retired record is poisoned and abandoned, and a second retire
// panics.
type reassembly struct {
	s       *Stack
	key     flowKey
	id      uint16
	chain   *netbuf.Chain
	nextOff uint16
	expiry  sim.EventID
	expire  func()
	dead    bool // retired in debug mode
}

// reassemble starts a record for the datagram id on flow key and arms its
// timeout.
func (s *Stack) reassemble(key flowKey, id uint16) *reassembly {
	r := s.free.Take()
	if r == nil {
		r = &reassembly{s: s}
		r.expire = r.expired
	}
	r.key, r.id, r.chain = key, id, netbuf.NewChain()
	r.expiry = s.node.Eng.Schedule(ReasmTimeout, r.expire)
	s.reasm[key] = r
	return r
}

// retire takes the record off its flow and returns it to the free list; the
// caller has already taken or released the chain.
func (r *reassembly) retire() {
	if r.dead {
		panic("ipv4: reassembly record retired twice")
	}
	delete(r.s.reasm, r.key)
	*r = reassembly{s: r.s, expire: r.expire}
	r.dead = !r.s.free.Put(r)
}

// expired abandons a partial datagram whose next fragment never came.
func (r *reassembly) expired() {
	if r.dead {
		panic("ipv4: reassembly record expired after retire")
	}
	if r.s.reasm[r.key] != r {
		return
	}
	r.s.ReasmDropped++
	r.chain.Release()
	r.retire()
}

// NewStack creates the network layer for node and installs itself as the
// receive handler on every currently attached NIC.
func NewStack(node *simnet.Node) *Stack {
	s := &Stack{
		node:     node,
		nics:     make(map[eth.Addr]*simnet.NIC),
		handlers: make(map[uint8]Handler),
		reasm:    make(map[flowKey]*reassembly),
	}
	s.receiveFn = s.receive
	for _, nic := range node.NICs() {
		s.AttachNIC(nic)
	}
	return s
}

// AttachNIC registers a NIC added after stack construction.
func (s *Stack) AttachNIC(nic *simnet.NIC) {
	s.nics[nic.Addr] = nic
	nic.SetRxHandler(s.rx)
}

// rx charges the per-packet receive cost (interrupt + driver + demux), then
// parses the frame.
func (s *Stack) rx(frame *netbuf.Chain) {
	s.node.ChargeFrame(s.node.Cost.PktRxNs, frame, s.receiveFn)
}

// Node returns the owning node.
func (s *Stack) Node() *simnet.Node { return s.node }

// Register installs the handler for an IP protocol number.
func (s *Stack) Register(proto uint8, h Handler) {
	s.handlers[proto] = h
}

// Send transmits payload as one IP datagram from the local address src to
// dst, fragmenting as needed. The stack takes ownership of the payload
// chain's references. Fragmentation copies windows onto the payload's
// buffers — payload bytes are never copied on this path.
func (s *Stack) Send(src, dst eth.Addr, proto uint8, payload *netbuf.Chain) error {
	nic, ok := s.nics[src]
	if !ok {
		return fmt.Errorf("ipv4: no local NIC with address %s", src)
	}
	id := s.nextID
	s.nextID++
	total := payload.Len()
	maxFrag := (nic.MTU - HeaderLen) &^ 7 // fragment payload, multiple of 8

	if total <= nic.MTU-HeaderLen {
		return s.sendFragment(nic, Header{
			TotalLen: uint16(HeaderLen + total),
			ID:       id,
			TTL:      64,
			Proto:    proto,
			Src:      src,
			Dst:      dst,
		}, payload)
	}

	for off := 0; off < total; off += maxFrag {
		n := maxFrag
		more := true
		if off+n >= total {
			n = total - off
			more = false
		}
		fragPayload, err := payload.SubChain(off, n)
		if err != nil {
			payload.Release()
			return fmt.Errorf("ipv4 fragment: %w", err)
		}
		hdr := Header{
			TotalLen:   uint16(HeaderLen + n),
			ID:         id,
			MoreFrags:  more,
			FragOffset: uint16(off),
			TTL:        64,
			Proto:      proto,
			Src:        src,
			Dst:        dst,
		}
		if err := s.sendFragment(nic, hdr, fragPayload); err != nil {
			payload.Release()
			return err
		}
	}
	// The fragments hold their own references now.
	payload.Release()
	return nil
}

// sendFragment prepends headers into a dedicated header buffer (never into
// shared payload buffers — fragments may alias one another's backing), then
// charges per-packet CPU and hands the frame to the NIC.
func (s *Stack) sendFragment(nic *simnet.NIC, hdr Header, payload *netbuf.Chain) error {
	frame := netbuf.NewChainCap(1 + payload.NumBufs())
	frame.Append(s.node.TxPool.Get())
	frame.AppendChain(payload)
	if err := hdr.Push(frame); err != nil {
		return err
	}
	ehdr := eth.Header{Dst: hdr.Dst, Src: hdr.Src, Type: eth.TypeIPv4}
	if err := ehdr.Push(frame); err != nil {
		return err
	}
	nic.ChargeSend(s.node.Cost.PktTxNs, frame)
	return nil
}

// receive parses one frame and either delivers or reassembles it.
func (s *Stack) receive(frame *netbuf.Chain) {
	if _, err := eth.Parse(frame); err != nil {
		s.ReasmErrors++
		frame.Release()
		return
	}
	hdr, err := Parse(frame)
	if err != nil {
		s.ReasmErrors++
		frame.Release()
		return
	}
	if !hdr.MoreFrags && hdr.FragOffset == 0 {
		s.deliver(hdr, frame)
		return
	}

	key := flowKey{src: hdr.Src, dst: hdr.Dst, proto: hdr.Proto}
	r := s.reasm[key]
	if r != nil && r.id != hdr.ID {
		// Per-flow ordering: a fragment with a new ID means the old
		// partial's missing tail can never arrive. Abandon it.
		s.ReasmDropped++
		s.evict(r)
		r = nil
	}
	if r == nil {
		if hdr.FragOffset != 0 {
			// Head fragment lost; the rest of the datagram is noise.
			s.ReasmErrors++
			frame.Release()
			return
		}
		r = s.reassemble(key, hdr.ID)
	}
	if hdr.FragOffset != r.nextOff {
		// A middle fragment was lost or reordered away.
		s.ReasmErrors++
		frame.Release()
		s.evict(r)
		return
	}
	r.chain.AppendChain(frame)
	r.nextOff += hdr.TotalLen - HeaderLen
	if !hdr.MoreFrags {
		s.node.Eng.Cancel(r.expiry)
		whole := r.chain
		r.retire()
		s.deliver(hdr, whole)
	}
}

// evict abandons a partial reassembly, releasing its buffers.
func (s *Stack) evict(r *reassembly) {
	s.node.Eng.Cancel(r.expiry)
	r.chain.Release()
	r.retire()
}

// deliver hands a complete datagram to the registered transport.
func (s *Stack) deliver(hdr Header, payload *netbuf.Chain) {
	h, ok := s.handlers[hdr.Proto]
	if !ok {
		payload.Release()
		return
	}
	h(hdr, payload)
}
