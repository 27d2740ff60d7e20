package controlplane

import (
	"ncache/internal/proto"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// Stats counts control-plane activity.
type Stats struct {
	Registers           uint64
	LookupsFH           uint64
	LookupsMembers      uint64
	RemapsStarted       uint64
	RemapDups           uint64
	RemapAcksSent       uint64
	InvalidationsSent   uint64
	InvalidationResends uint64
	InvalidationAcks    uint64
	// Abandoned counts invalidations given up after DefaultRetryMax tries; the
	// remap still completes (the sim has no permanently dead peers, so a
	// nonzero count under bounded loss indicates miscalibrated retries).
	Abandoned uint64
	Errors    uint64
}

// remapID names one remap exactly: retransmissions carry the same triple,
// which is what makes them idempotent at the server.
type remapID struct {
	server uint16
	epoch  uint64
	seq    uint64
}

// remapPeer tracks one peer's invalidation progress within a remap.
type remapPeer struct {
	idx   int
	acked bool
	tries int
}

// remapState is one in-flight (or completed) remap.
type remapState struct {
	id    remapID
	lbns  []int64
	peers []*remapPeer
	done  bool
}

// Server is the control-plane service: placement lookups for clients,
// registration and the remap/invalidate protocol for front-end servers.
// Single-homed on its own node so its CPU saturation is measurable.
type Server struct {
	node *simnet.Node
	reg  *Registry

	// routes[i] sends one message to registered server i (nil until it
	// registers). Indexed by server ID so fan-out order is deterministic.
	routes []func(Msg)
	remaps map[remapID]*remapState

	udpT    *udp.Transport
	scratch []byte
	Stats   Stats
}

// The protocol's retransmission bounds: the server's invalidation fan-out,
// an agent's registration and remap announcements and a resolver's lookups
// all resend every DefaultRetryRTO, at most DefaultRetryMax times.
const (
	DefaultRetryRTO = 10 * sim.Millisecond
	DefaultRetryMax = 6
)

// NewServer creates the control-plane service on node. servers lists the
// front-end servers' fabric addresses by index; the index is the protocol's
// server ID.
func NewServer(node *simnet.Node, servers []eth.Addr) *Server {
	return &Server{
		node:    node,
		reg:     NewRegistry(servers),
		routes:  make([]func(Msg), len(servers)),
		remaps:  make(map[remapID]*remapState),
		scratch: make([]byte, frameLenBytes+headerLen+8*MaxLBNs),
	}
}

// Registry exposes the placement authority (tests and benches reconfigure
// placement through it).
func (s *Server) Registry() *Registry { return s.reg }

// Node returns the server's node.
func (s *Server) Node() *simnet.Node { return s.node }

// ServeUDP binds the datagram endpoint.
func (s *Server) ServeUDP(t *udp.Transport) error {
	s.udpT = t
	return t.Bind(Port, func(dg udp.Datagram) {
		n := dg.Payload.Len()
		if n > len(s.scratch) {
			dg.Payload.Release()
			s.Stats.Errors++
			return
		}
		dg.Payload.Gather(s.scratch[:n])
		dg.Payload.Release()
		if n < frameLenBytes+headerLen {
			s.Stats.Errors++
			return
		}
		m, err := unmarshal(s.scratch[frameLenBytes:n])
		if err != nil {
			s.Stats.Errors++
			return
		}
		src, srcPort, dst := dg.Src, dg.SrcPort, dg.Dst
		s.dispatch(m, func(r Msg) { s.sendUDP(dst, src, srcPort, r) })
	})
}

// sendUDP transmits one framed message from the service port.
func (s *Server) sendUDP(local, dst eth.Addr, dstPort uint16, m Msg) {
	ch, err := Encode(s.node.TxPool, m)
	if err != nil {
		s.Stats.Errors++
		return
	}
	if err := s.udpT.SendChain(local, Port, dst, dstPort, ch); err != nil {
		s.Stats.Errors++
	}
}

// ServeStream accepts framed control connections (the TCP path).
func (s *Server) ServeStream(ln proto.Listener) error {
	return ln.ListenConn(Port, func(c proto.Conn) {
		reply := func(r Msg) {
			ch, err := Encode(s.node.TxPool, r)
			if err != nil {
				s.Stats.Errors++
				return
			}
			if err := c.SendChain(ch); err != nil {
				s.Stats.Errors++
			}
		}
		f := NewFramer(func(m Msg) { s.dispatch(m, reply) })
		c.SetReceiver(f.Push)
	})
}

// dispatch charges the control CPU and handles one message. The charge
// models RPC decode plus one placement-table operation, so control-plane
// saturation shows up in the scale-out sweep like any other CPU.
func (s *Server) dispatch(m Msg, reply func(Msg)) {
	s.node.Charge(s.node.Cost.RPCNs+s.node.Cost.NCacheLookupNs, func() {
		s.handle(m, reply)
	})
}

// handle runs one message against the protocol state machine.
func (s *Server) handle(m Msg, reply func(Msg)) {
	switch m.Type {
	case MsgRegister:
		idx := int(m.Server)
		if idx < 0 || idx >= len(s.routes) {
			s.Stats.Errors++
			return
		}
		s.Stats.Registers++
		s.routes[idx] = reply
		reply(Msg{Type: MsgRegisterAck, Server: m.Server, Epoch: s.reg.Epoch()})

	case MsgLookupFH:
		s.Stats.LookupsFH++
		idx := s.reg.ServerFor(m.FH)
		r := Msg{Type: MsgLookupFHResp, FH: m.FH, Epoch: s.reg.Epoch(), Seq: m.Seq}
		if idx < 0 {
			r.Status = 1
		} else {
			r.Server = uint16(idx)
			r.Addr = s.reg.AddrOf(idx)
		}
		reply(r)

	case MsgMembers:
		s.Stats.LookupsMembers++
		r := Msg{Type: MsgMembersResp, Epoch: s.reg.Epoch(), Seq: m.Seq, LBN: int64(s.reg.VNodes())}
		members := s.reg.Members()
		if s.reg.HasOverrides() || len(members) > MaxLBNs {
			// The ring alone does not decide placement (or does not fit
			// one message): clients must keep asking per handle.
			r.Status |= StatusOverrides
		} else {
			for _, idx := range members {
				r.LBNs = append(r.LBNs, int64(uint64(idx)<<32|uint64(uint32(s.reg.AddrOf(idx)))))
			}
		}
		reply(r)

	case MsgRemap:
		s.handleRemap(m)

	case MsgInvalidateAck:
		s.handleInvalidateAck(m)

	default:
		s.Stats.Errors++
	}
}

// handleRemap starts (or re-acknowledges) one remap: fan out epoch-stamped
// invalidations to every other registered server, ack the origin once all
// of them acknowledged.
func (s *Server) handleRemap(m Msg) {
	id := remapID{server: m.Server, epoch: m.Epoch, seq: m.Seq}
	if st, ok := s.remaps[id]; ok {
		// A retransmitted remap: if the protocol already completed the
		// ack was lost — re-ack; otherwise the fan-out is still running
		// and the origin's retry timer covers it.
		s.Stats.RemapDups++
		if st.done {
			s.ackOrigin(st)
		}
		return
	}
	st := &remapState{id: id, lbns: append([]int64(nil), m.LBNs...)}
	// Peers in ascending server-ID order: the fan-out sequence is part of
	// the deterministic replay surface.
	for idx := range s.routes {
		if idx == int(m.Server) || s.routes[idx] == nil {
			continue
		}
		st.peers = append(st.peers, &remapPeer{idx: idx})
	}
	s.remaps[id] = st
	s.Stats.RemapsStarted++
	if len(st.peers) == 0 {
		s.complete(st)
		return
	}
	for _, p := range st.peers {
		s.sendInvalidate(st, p)
	}
}

// invalidateMsg builds the fan-out message for one remap.
func (s *Server) invalidateMsg(st *remapState) Msg {
	return Msg{
		Type:   MsgInvalidate,
		Server: st.id.server,
		Epoch:  st.id.epoch,
		Seq:    st.id.seq,
		LBNs:   st.lbns,
	}
}

// sendInvalidate transmits one peer's invalidation and arms its retry
// timer. The timer never re-arms after the peer acked or the tries are
// exhausted, so a drained engine run always terminates.
func (s *Server) sendInvalidate(st *remapState, p *remapPeer) {
	if route := s.routes[p.idx]; route != nil {
		if p.tries == 0 {
			s.Stats.InvalidationsSent++
		} else {
			s.Stats.InvalidationResends++
		}
		route(s.invalidateMsg(st))
	}
	p.tries++
	s.node.Eng.Schedule(DefaultRetryRTO, func() {
		if st.done || p.acked {
			return
		}
		if p.tries >= DefaultRetryMax {
			s.Stats.Abandoned++
			p.acked = true
			s.completeIfAcked(st)
			return
		}
		s.sendInvalidate(st, p)
	})
}

// handleInvalidateAck records one peer's acknowledgement.
func (s *Server) handleInvalidateAck(m Msg) {
	id := remapID{server: m.Server, epoch: m.Epoch, seq: m.Seq}
	st, ok := s.remaps[id]
	if !ok {
		return
	}
	s.Stats.InvalidationAcks++
	for _, p := range st.peers {
		if p.idx == int(m.From) {
			p.acked = true
		}
	}
	s.completeIfAcked(st)
}

// completeIfAcked finishes the remap once every peer acknowledged.
func (s *Server) completeIfAcked(st *remapState) {
	if st.done {
		return
	}
	for _, p := range st.peers {
		if !p.acked {
			return
		}
	}
	s.complete(st)
}

// complete marks the remap done and acks its origin. Completed state is
// retained so retransmitted remaps re-ack instead of re-running the
// fan-out (the idempotence the loss tests assert).
func (s *Server) complete(st *remapState) {
	st.done = true
	s.ackOrigin(st)
}

// ackOrigin sends the remap acknowledgement back to the origin server.
func (s *Server) ackOrigin(st *remapState) {
	if route := s.routes[st.id.server]; route != nil {
		s.Stats.RemapAcksSent++
		route(Msg{Type: MsgRemapAck, Server: st.id.server, Epoch: st.id.epoch, Seq: st.id.seq})
	}
}

// PendingRemaps counts remaps whose fan-out has not completed (drain
// assertions in tests).
func (s *Server) PendingRemaps() int {
	n := 0
	for _, st := range s.remaps { // det: commutative (count)
		if !st.done {
			n++
		}
	}
	return n
}
