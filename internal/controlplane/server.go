package controlplane

import (
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// Stats counts control-plane activity.
type Stats struct {
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

// remapID names one remap exactly: retransmissions carry the same pair,
// which is what makes them idempotent at the server.
type remapID struct {
	server uint16
	seq    uint64
}

// remapPeer is one peer's invalidation within a remap: the request that
// resends it, settled by the peer's ack or by giving up on it.
type remapPeer struct {
	request
	s   *Server
	st  *remapState
	idx int
}

// remapState is one in-flight (or completed) remap.
type remapState struct {
	id    remapID
	lbns  []int64
	peers []*remapPeer
	done  bool
}

// Server is the control-plane service: the remap/invalidate protocol among
// the front-end servers. Single-homed on its own node so its CPU saturation
// is measurable.
type Server struct {
	node *simnet.Node
	addr eth.Addr

	// servers[i] is server i's address, where its agent listens on Port.
	// Indexed by server ID so fan-out order is deterministic. paths[i]
	// estimates the round trip to server i, for the invalidations sent to it.
	servers []eth.Addr
	paths   []sim.RTT
	remaps  map[remapID]*remapState

	udp   *udp.Transport
	Stats Stats
}

// NewServer creates the control-plane service on node, already attached to
// the fabric by its one NIC. servers lists the front-end servers' fabric
// addresses by index; the index is the protocol's server ID.
func NewServer(node *simnet.Node, servers []eth.Addr) *Server {
	return &Server{
		node:    node,
		addr:    node.NICs()[0].Addr,
		servers: append([]eth.Addr(nil), servers...),
		paths:   make([]sim.RTT, len(servers)),
		remaps:  make(map[remapID]*remapState),
	}
}

// Node returns the server's node.
func (s *Server) Node() *simnet.Node { return s.node }

// ServeUDP binds the service port.
func (s *Server) ServeUDP(t *udp.Transport) error {
	s.udp = t
	return t.Bind(Port, func(dg udp.Datagram) {
		m, ok := decode(dg.Payload)
		if !ok {
			s.Stats.Errors++
			return
		}
		s.dispatch(m)
	})
}

// send transmits one message to server idx's agent.
func (s *Server) send(idx int, m Msg) {
	if err := sendMsg(s.udp, s.addr, s.servers[idx], m); err != nil {
		s.Stats.Errors++
	}
}

// dispatch charges the control CPU and handles one message. The charge
// models RPC decode plus one protocol-table operation, so control-plane
// saturation shows up in the scale-out sweep like any other CPU.
func (s *Server) dispatch(m Msg) {
	s.node.Charge(s.node.Cost.RPCNs+s.node.Cost.NCacheLookupNs, func() {
		s.handle(m)
	})
}

// handle runs one message from a peer against the protocol state machine.
func (s *Server) handle(m Msg) {
	switch m.Type {
	case MsgRemap:
		s.handleRemap(m)

	case MsgInvalidateAck:
		s.handleInvalidateAck(m)

	default:
		s.Stats.Errors++
	}
}

// handleRemap starts (or re-acknowledges) one remap: fan out invalidations
// to every other server, ack the origin once all of them acknowledged. A
// remap from outside the member set is a protocol error.
func (s *Server) handleRemap(m Msg) {
	if int(m.Server) >= len(s.servers) {
		s.Stats.Errors++
		return
	}
	id := remapID{server: m.Server, seq: m.Seq}
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
	for idx := range s.servers {
		if idx == int(m.Server) {
			continue
		}
		st.peers = append(st.peers, &remapPeer{s: s, st: st, idx: idx})
	}
	s.remaps[id] = st
	s.Stats.RemapsStarted++
	if len(st.peers) == 0 {
		s.complete(st)
		return
	}
	for _, p := range st.peers {
		p.start(s.node.Eng, p, &s.paths[p.idx], DefaultRetryMax)
	}
}

// transmit sends the peer its invalidation.
func (p *remapPeer) transmit(again bool) {
	s, id := p.s, p.st.id
	if again {
		s.Stats.InvalidationResends++
	} else {
		s.Stats.InvalidationsSent++
	}
	s.send(p.idx, Msg{Type: MsgInvalidate, Server: id.server, Seq: id.seq, LBNs: p.st.lbns})
}

// abandon gives up on the peer; the remap completes without it.
func (p *remapPeer) abandon() {
	p.s.Stats.Abandoned++
	p.s.completeIfAcked(p.st)
}

// handleInvalidateAck records one peer's acknowledgement.
func (s *Server) handleInvalidateAck(m Msg) {
	id := remapID{server: m.Server, seq: m.Seq}
	st, ok := s.remaps[id]
	if !ok {
		return
	}
	s.Stats.InvalidationAcks++
	for _, p := range st.peers {
		if p.idx == int(m.From) {
			p.settle()
		}
	}
	s.completeIfAcked(st)
}

// completeIfAcked finishes the remap once every peer's invalidation has
// settled.
func (s *Server) completeIfAcked(st *remapState) {
	if st.done {
		return
	}
	for _, p := range st.peers {
		if !p.settled {
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
	s.Stats.RemapAcksSent++
	s.send(int(st.id.server), Msg{Type: MsgRemapAck, Server: st.id.server, Seq: st.id.seq})
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
