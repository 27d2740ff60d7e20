package ipv4

import (
	"fmt"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// Handler consumes a reassembled datagram for one transport protocol, sent
// from src to dst. The payload chain's buffers are the original wire
// buffers (zero-copy reassembly). Ownership contract: the stack transfers
// the references to the handler, which must Release or forward them exactly
// once.
type Handler func(src, dst eth.Addr, payload *netbuf.Chain)

// QuietHandler takes a whole datagram that crossed quiet (see
// simnet.NIC.EndTrain) at once, with the key its upcall would have had: due
// when its receive CPU time ends, posted when it was delivered (the
// sequence number it would have taken is unknown, and left 0). The
// transport defers the datagram's effect until that key has passed; the
// sender vouched that nothing else waits on it. Ownership is as for Handler.
type QuietHandler func(src, dst eth.Addr, payload *netbuf.Chain, upcall sim.Key)

// Stack is a node's network layer: it owns the receive path of every NIC on
// the node, demuxes to registered transports, fragments oversize datagrams
// on transmit, and reassembles on receive.
type Stack struct {
	node     *simnet.Node
	nics     map[eth.Addr]*simnet.NIC
	handlers map[uint8]Handler
	quiet    map[uint8]QuietHandler
	nextID   uint16
	reasm    map[flowKey]*reassembly
	// free is the free list of reassembly records (see reassembly).
	free netbuf.FreeList[*reassembly]
	// train holds the fragment frames of the datagram being sent.
	train []*netbuf.Chain

	// ReasmErrors counts fragments that could not be reassembled
	// (out-of-order, stale, duplicate or inconsistent); the lossless fabric
	// keeps this at zero unless faults are injected.
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
// fragment carrying a newer IP ID obsoletes any older partial.
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
// expire checks that the record still holds its flow all the same. A quiet
// datagram arms no timer: its last fragment is sure to come.
type reassembly struct {
	netbuf.Recycled
	s       *Stack
	key     flowKey
	id      uint16
	chain   *netbuf.Chain
	nextOff uint16
	expiry  sim.EventID
	expire  func()
}

// reassemble starts a record for the datagram id on flow key and, unless the
// head fragment came quiet, arms its timeout from at, when the fragment's
// receive CPU time ends.
func (s *Stack) reassemble(key flowKey, id uint16, at sim.Time, quiet bool) *reassembly {
	r := s.free.Take()
	if r == nil {
		r = &reassembly{s: s}
		r.expire = r.expired
	}
	r.key, r.id, r.chain = key, id, s.node.TxPool.NewChain(0)
	if !quiet {
		r.expiry = s.node.Schedule(at.Sub(s.node.Eng.Now())+ReasmTimeout, r.expire)
	}
	s.reasm[key] = r
	return r
}

// retire takes the record off its flow and returns it to the free list; the
// caller has already taken or released the chain.
func (r *reassembly) retire() {
	delete(r.s.reasm, r.key)
	*r = reassembly{Recycled: r.Recycled, s: r.s, expire: r.expire}
	r.s.free.Put(r)
}

// expired abandons a partial datagram whose next fragment never came.
func (r *reassembly) expired() {
	if r.Retired() {
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
		quiet:    make(map[uint8]QuietHandler),
		reasm:    make(map[flowKey]*reassembly),
	}
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

// rx takes in one frame delivered at the instant at. It reserves the
// per-packet receive cost (interrupt + driver + demux) on the CPU from then,
// and parses and reassembles the frame at once, in delivery order: only the
// frame that completes a datagram posts an event, the upcall, for when its
// CPU time ends, and a quiet whole datagram not even that.
func (s *Stack) rx(frame *netbuf.Chain, at sim.Time, quiet bool) {
	s.receive(frame, sim.Key{At: s.node.CPU.UseFrom(at, s.node.Cost.PktRxNs), Posted: at}, quiet)
}

// Node returns the owning node.
func (s *Stack) Node() *simnet.Node { return s.node }

// Register installs the handler for an IP protocol number.
func (s *Stack) Register(proto uint8, h Handler) {
	s.handlers[proto] = h
}

// RegisterQuiet installs the handler for the protocol's quiet datagrams.
func (s *Stack) RegisterQuiet(proto uint8, h QuietHandler) {
	s.quiet[proto] = h
}

// Send transmits payload as one IP datagram from the local address src to
// dst, fragmenting as needed. The stack takes ownership of the payload
// chain's references, on error too. An unfragmented datagram leaves as the
// payload chain itself, its IP and Ethernet headers pushed into the headroom
// of its first window: the transport's header buffer, which the caller holds
// alone, as Linux pushes them into one skb head. A fragment copies windows
// onto the payload's buffers behind a header buffer of its own — payload
// bytes are never copied on this path. The fragments are framed first and
// charged to the NIC as one train, so all but the last can cross the switch
// quiet (see simnet.NIC.ChargeSendTrain).
func (s *Stack) Send(src, dst eth.Addr, proto uint8, payload *netbuf.Chain) error {
	nic, ok := s.nics[src]
	if !ok {
		payload.Release()
		return fmt.Errorf("ipv4: no local NIC with address %s", src)
	}
	id := s.nextID
	s.nextID++
	total := payload.Len()
	maxFrag := (nic.MTU - HeaderLen) &^ 7 // fragment payload, multiple of 8

	if total <= nic.MTU-HeaderLen {
		if err := push(Header{
			TotalLen: uint16(HeaderLen + total),
			ID:       id,
			TTL:      64,
			Proto:    proto,
			Src:      src,
			Dst:      dst,
		}, payload); err != nil {
			payload.Release()
			return err
		}
		nic.ChargeSend(s.node.Cost.PktTxNs, payload)
		return nil
	}

	train := s.train[:0]
	for off := 0; off < total; off += maxFrag {
		n := maxFrag
		more := true
		if off+n >= total {
			n = total - off
			more = false
		}
		fragPayload, err := payload.SubChain(off, n)
		var frame *netbuf.Chain
		if err == nil {
			frame, err = s.frame(Header{
				TotalLen:   uint16(HeaderLen + n),
				ID:         id,
				MoreFrags:  more,
				FragOffset: uint16(off),
				TTL:        64,
				Proto:      proto,
				Src:        src,
				Dst:        dst,
			}, fragPayload)
		}
		if err != nil {
			for _, f := range train {
				f.Release()
			}
			clear(train)
			payload.Release()
			return fmt.Errorf("ipv4 fragment: %w", err)
		}
		train = append(train, frame)
	}
	// The fragments hold their own references now.
	payload.Release()
	nic.ChargeSendTrain(s.node.Cost.PktTxNs, train)
	clear(train)
	s.train = train[:0]
	return nil
}

// frame builds one fragment: its headers go into a header buffer of its own,
// never into payload buffers, whose backing fragments share. On error the
// frame is released.
func (s *Stack) frame(hdr Header, payload *netbuf.Chain) (*netbuf.Chain, error) {
	frame := s.node.TxPool.NewChain(1 + payload.NumBufs())
	frame.Append(s.node.HdrPool.Get())
	frame.AppendChain(payload)
	if err := push(hdr, frame); err != nil {
		frame.Release()
		return nil, err
	}
	return frame, nil
}

// push prepends the IP header, then the Ethernet header, to the frame's
// first window.
func push(hdr Header, frame *netbuf.Chain) error {
	if err := hdr.Push(frame); err != nil {
		return err
	}
	return eth.Header{Dst: hdr.Dst, Src: hdr.Src, Type: eth.TypeIPv4}.Push(frame)
}

// receive parses one frame and either delivers or reassembles it; up is its
// upcall's key, due when its receive CPU time ends.
func (s *Stack) receive(frame *netbuf.Chain, up sim.Key, quiet bool) {
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
		if quiet {
			s.deliverQuiet(hdr, frame, up)
			return
		}
		s.deliver(hdr, frame, up.At)
		return
	}

	key := flowKey{src: hdr.Src, dst: hdr.Dst, proto: hdr.Proto}
	r := s.reasm[key]
	if r != nil && r.id != hdr.ID {
		if int16(hdr.ID-r.id) < 0 {
			// A late fragment of a datagram the flow has moved past
			// (serial arithmetic on the 16-bit ID): drop it alone.
			s.ReasmErrors++
			frame.Release()
			return
		}
		// Per-flow ordering: a fragment with a newer ID means the old
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
		r = s.reassemble(key, hdr.ID, up.At, quiet)
	}
	if hdr.FragOffset < r.nextOff {
		// A duplicate of a fragment already held: drop the copy alone.
		s.ReasmErrors++
		frame.Release()
		return
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
		s.node.Cancel(r.expiry)
		whole := r.chain
		r.retire()
		s.deliver(hdr, whole, up.At)
	}
}

// evict abandons a partial reassembly, releasing its buffers.
func (s *Stack) evict(r *reassembly) {
	s.node.Cancel(r.expiry)
	r.chain.Release()
	r.retire()
}

// deliver posts a complete datagram's upcall to the registered transport for
// the instant at. The post carries the handler, the payload and both
// addresses, so it allocates nothing.
func (s *Stack) deliver(hdr Header, payload *netbuf.Chain, at sim.Time) {
	h, ok := s.handlers[hdr.Proto]
	if !ok {
		payload.Release()
		return
	}
	s.node.PostAt(at, upcall, h, payload, int64(hdr.Src)<<32|int64(hdr.Dst))
}

// deliverQuiet hands a quiet whole datagram to its transport's quiet handler
// at once. The sender vouched for one; it panics if there is none.
func (s *Stack) deliverQuiet(hdr Header, payload *netbuf.Chain, up sim.Key) {
	h, ok := s.quiet[hdr.Proto]
	if !ok {
		panic(fmt.Sprintf("ipv4: a quiet datagram for protocol %d, which defers no upcall", hdr.Proto))
	}
	h(hdr.Src, hdr.Dst, payload, up)
}

// upcall is deliver's handler: addrs holds the source address in its high
// 32 bits and the destination in its low.
func upcall(h, payload any, addrs int64) {
	h.(Handler)(eth.Addr(uint64(addrs)>>32), eth.Addr(uint32(addrs)), payload.(*netbuf.Chain))
}
