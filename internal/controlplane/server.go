package controlplane

import (
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
	"ncache/internal/simnet"
	"ncache/internal/sunrpc"
)

// Stats counts control-plane activity.
type Stats struct {
	RemapsStarted     uint64
	RemapDups         uint64
	RemapAcksSent     uint64
	InvalidationsSent uint64
	// InvalidationResends counts INVALIDATE resends, brought up to date as
	// each invalidation settles.
	InvalidationResends uint64
	// Abandoned counts invalidations given up after retrySends tries; the
	// remap still completes (the sim has no permanently dead peers, so a
	// nonzero count under bounded loss indicates miscalibrated retries).
	Abandoned uint64
	Errors    uint64
}

// remapState is one origin's remap, in flight or completed.
type remapState struct {
	s   *Server
	seq uint64
	// call is the REMAP, answered when waiting, the invalidations not yet
	// settled, reaches zero.
	call    sunrpc.Call
	waiting int
	// settled is settle, bound once per state.
	settled func(sunrpc.Reply, error)
}

// Server is the control-plane service: the remap/invalidate protocol among
// the front-end servers. Single-homed on its own node so its CPU saturation
// is measurable.
type Server struct {
	node *simnet.Node

	// peers[i] calls server i's agent: one client, so one round-trip
	// estimate, per server, indexed by server ID so fan-out order is
	// deterministic. latest[i] is server i's latest remap: an origin has
	// one in flight, so one slot per server holds all the protocol state
	// there is.
	peers  []*sunrpc.Client
	latest []*remapState
	// lbns is the block list of the REMAP being served.
	lbns []int64

	Stats Stats
}

// NewServer creates the control-plane service on t's node, already attached
// to the fabric by its one NIC. servers lists the front-end servers' fabric
// addresses by index; the index is the protocol's server ID.
func NewServer(t *udp.Transport, servers []eth.Addr) (*Server, error) {
	node := t.Node()
	s := &Server{
		node:   node,
		peers:  make([]*sunrpc.Client, len(servers)),
		latest: make([]*remapState, len(servers)),
	}
	for i, addr := range servers {
		c, err := dial(t, node.NICs()[0].Addr, Port+1+uint16(i), addr)
		if err != nil {
			return nil, err
		}
		s.peers[i] = c
	}
	srv := sunrpc.NewServer(node)
	srv.Register(prog, vers, procRemap, s.handleRemap)
	if err := srv.ServeUDP(t, Port); err != nil {
		return nil, err
	}
	return s, nil
}

// Node returns the server's node.
func (s *Server) Node() *simnet.Node { return s.node }

// charge bills the protocol-table operation each message handled costs, on
// top of the RPC layer's per-message charge, so control-plane saturation
// shows up in the scale-out sweep like any other CPU.
func (s *Server) charge() { s.node.Charge(s.node.Cost.NCacheLookupNs, nil) }

// handleRemap starts (or re-acknowledges) one remap: fan out INVALIDATE to
// every other server, and answer the origin once all of them have settled.
// A remap from outside the member set is a protocol error.
func (s *Server) handleRemap(c sunrpc.Call) {
	s.charge()
	origin, seq, lbns, err := decodeArgs(c.Body, s.lbns)
	s.lbns, c.Body = lbns, nil // released; the call may be kept for its reply
	if err != nil || origin >= len(s.peers) {
		s.Stats.Errors++
		_ = c.ReplyError(sunrpc.AcceptGarbageArgs) // counted in Errors either way
		return
	}
	st := s.latest[origin]
	if st != nil && seq <= st.seq {
		// The slot's seq is a retransmission: if the fan-out completed the
		// reply was lost — reply again; otherwise the slot's call is
		// answered when it completes. A lower one is late, its origin
		// already past it: reply.
		s.Stats.RemapDups++
		if seq < st.seq || st.waiting == 0 {
			s.ackOrigin(c)
		}
		return
	}
	if st == nil || st.waiting > 0 {
		// A state whose invalidations are all settled is reused; one the
		// origin gave up on mid-fan-out lives on until they are.
		st = &remapState{s: s}
		st.settled = st.settle
		s.latest[origin] = st
	}
	// A control plane serves two or more servers, so every remap has a
	// peer to invalidate.
	st.seq, st.call, st.waiting = seq, c, len(s.peers)-1
	s.Stats.RemapsStarted++
	// Peers in ascending server-ID order: the fan-out sequence is part of
	// the deterministic replay surface.
	for idx, peer := range s.peers {
		if idx == origin {
			continue
		}
		s.Stats.InvalidationsSent++
		if err := call(peer, procInvalidate, origin, seq, lbns, st.settled); err != nil {
			s.Stats.Errors++
			st.settle(sunrpc.Reply{}, err)
		}
	}
}

// settle records one peer's INVALIDATE ending, answered or given up on (the
// remap then completes without that peer). The last to settle completes the
// remap and answers its origin; the state stays in its slot until the
// origin's next remap, so a retransmission is answered again instead of
// re-running the fan-out (the idempotence the loss tests assert).
func (st *remapState) settle(r sunrpc.Reply, err error) {
	s := st.s
	release(r)
	if err != nil {
		s.Stats.Abandoned++
	} else {
		s.charge()
	}
	s.Stats.InvalidationResends = 0
	for _, p := range s.peers {
		s.Stats.InvalidationResends += p.Retransmits
	}
	if st.waiting--; st.waiting == 0 {
		s.ackOrigin(st.call)
	}
}

// ackOrigin answers a REMAP: the remap it names is complete.
func (s *Server) ackOrigin(c sunrpc.Call) {
	s.Stats.RemapAcksSent++
	if ack(c) != nil {
		s.Stats.Errors++
	}
}

// PendingRemaps counts remaps whose fan-out has not completed (drain
// assertions in tests).
func (s *Server) PendingRemaps() int {
	n := 0
	for _, st := range s.latest {
		if st != nil && st.waiting > 0 {
			n++
		}
	}
	return n
}
