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
	// Abandoned counts invalidations given up after DefaultRetryMax tries; the
	// remap still completes (the sim has no permanently dead peers, so a
	// nonzero count under bounded loss indicates miscalibrated retries).
	Abandoned uint64
	Errors    uint64
}

// remapPeer is one peer's invalidation within a remap: the request that
// resends it, settled by the peer's ack or by giving up on it.
type remapPeer struct {
	request
	s   *Server
	st  *remapState
	idx int
}

// remapState is one origin's latest remap, in flight or completed.
type remapState struct {
	origin uint16
	seq    uint64
	lbns   []int64
	peers  []*remapPeer
	done   bool
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
	// latest[i] is server i's latest remap: an origin has one in flight, so
	// one slot per server holds all the protocol state there is.
	servers []eth.Addr
	paths   []sim.RTT
	latest  []*remapState

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
		latest:  make([]*remapState, len(servers)),
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
	if st := s.latest[m.Server]; st != nil && m.Seq <= st.seq {
		// The slot's seq is a retransmission: if the fan-out completed the
		// ack was lost — re-ack; otherwise the origin's retry timer covers
		// it. A lower one is late, its origin already past it: re-ack.
		s.Stats.RemapDups++
		if m.Seq < st.seq || st.done {
			s.ackOrigin(m.Server, m.Seq)
		}
		return
	}
	st := &remapState{origin: m.Server, seq: m.Seq, lbns: append([]int64(nil), m.LBNs...)}
	// Peers in ascending server-ID order: the fan-out sequence is part of
	// the deterministic replay surface.
	for idx := range s.servers {
		if idx == int(m.Server) {
			continue
		}
		st.peers = append(st.peers, &remapPeer{s: s, st: st, idx: idx})
	}
	s.latest[m.Server] = st
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
	s, st := p.s, p.st
	if again {
		s.Stats.InvalidationResends++
	} else {
		s.Stats.InvalidationsSent++
	}
	s.send(p.idx, Msg{Type: MsgInvalidate, Server: st.origin, Seq: st.seq, LBNs: st.lbns})
}

// abandon gives up on the peer; the remap completes without it.
func (p *remapPeer) abandon() {
	p.s.Stats.Abandoned++
	p.s.completeIfAcked(p.st)
}

// handleInvalidateAck records one peer's acknowledgement of its origin's
// latest remap; an ack for an earlier one settles nothing.
func (s *Server) handleInvalidateAck(m Msg) {
	if int(m.Server) >= len(s.latest) {
		s.Stats.Errors++
		return
	}
	st := s.latest[m.Server]
	if st == nil || st.seq != m.Seq {
		return
	}
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

// complete marks the remap done and acks its origin. Completed state stays
// in its slot until the origin's next remap, so a retransmission re-acks
// instead of re-running the fan-out (the idempotence the loss tests assert).
func (s *Server) complete(st *remapState) {
	st.done = true
	s.ackOrigin(st.origin, st.seq)
}

// ackOrigin sends the acknowledgement of remap (origin, seq) back to origin.
func (s *Server) ackOrigin(origin uint16, seq uint64) {
	s.Stats.RemapAcksSent++
	s.send(int(origin), Msg{Type: MsgRemapAck, Server: origin, Seq: seq})
}

// PendingRemaps counts remaps whose fan-out has not completed (drain
// assertions in tests).
func (s *Server) PendingRemaps() int {
	n := 0
	for _, st := range s.latest {
		if st != nil && !st.done {
			n++
		}
	}
	return n
}
