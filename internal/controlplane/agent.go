package controlplane

import (
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// AgentStats counts one front-end server's protocol activity.
type AgentStats struct {
	RemapsSent           uint64
	RemapRetries         uint64
	RemapsAcked          uint64
	RemapsAbandoned      uint64
	InvalidationsRcvd    uint64
	InvalidationsApplied uint64
	InvalidationDups     uint64
	Errors               uint64
	// LBNsQueued counts the blocks handed to SendRemap; LBNsAnnounced those
	// whose chunk was acknowledged and LBNsAbandoned those whose chunk was
	// given up on. What the first exceeds the other two by is waiting for a
	// round or in one, and is zero once the agent has drained.
	LBNsQueued    uint64
	LBNsAnnounced uint64
	LBNsAbandoned uint64
}

// invalID dedups invalidations: retransmissions of (origin, seq) are applied
// once and re-acked every time.
type invalID struct {
	origin uint16
	seq    uint64
}

// pendingRemap is one unacknowledged remap announcement: a chunk of LBNs and
// the request that resends it. It leaves Agent.pending — the round in flight
// — when the request settles, acknowledged or abandoned.
type pendingRemap struct {
	request
	a    *Agent
	seq  uint64
	lbns []int64
}

// Agent is a front-end server's control-plane endpoint, bound to Port on the
// server's own node: it announces completed FHO→LBN remaps, and applies (and
// acknowledges) invalidations for remaps other servers performed.
type Agent struct {
	node   *simnet.Node
	udp    *udp.Transport
	local  eth.Addr
	cp     eth.Addr
	server int

	// path estimates the round trip to the control plane; a remap's includes
	// the invalidation fan-out its ack waits for.
	path sim.RTT

	seq uint64
	// queue holds the LBNs announced while a round is in flight, in announce
	// order; pending is that round, one entry per unsettled chunk.
	queue   []int64
	pending map[uint64]*pendingRemap
	seen    map[invalID]bool

	invalidate func([]int64)

	Stats AgentStats
}

// NewAgent creates the endpoint for server index `server`: Port on the
// server's UDP transport, at its address local, hearing only the control
// plane at cp.
func NewAgent(node *simnet.Node, t *udp.Transport, local, cp eth.Addr, server int) (*Agent, error) {
	a := &Agent{
		node:    node,
		udp:     t,
		local:   local,
		cp:      cp,
		server:  server,
		pending: make(map[uint64]*pendingRemap),
		seen:    make(map[invalID]bool),
	}
	err := t.Bind(Port, func(dg udp.Datagram) {
		if dg.Src != cp || dg.SrcPort != Port {
			dg.Payload.Release()
			return
		}
		if m, ok := decode(dg.Payload); ok {
			a.handle(m)
		}
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// SetInvalidate installs the callback that drops remapped blocks from this
// server's caches. Called once per applied invalidation, before the ack.
func (a *Agent) SetInvalidate(fn func([]int64)) { a.invalidate = fn }

// send transmits one message to the control plane.
func (a *Agent) send(m Msg) {
	if err := sendMsg(a.udp, a.local, a.cp, m); err != nil {
		a.Stats.Errors++
	}
}

// SendRemap announces remapped LBNs to the control plane, one round of
// announcements at a time: with none in flight the LBNs leave now, otherwise
// they wait for the round to settle and leave with everything else announced
// meanwhile. An idle path therefore announces immediately and a loaded one
// batches by exactly as much as the load delays it — no timer, no threshold.
func (a *Agent) SendRemap(lbns []int64) {
	a.Stats.LBNsQueued += uint64(len(lbns))
	a.queue = append(a.queue, lbns...)
	if len(a.pending) == 0 {
		a.sendRound()
	}
}

// sendRound sends everything queued, chunked to the message limit, each
// chunk its own request.
func (a *Agent) sendRound() {
	lbns := a.queue
	a.queue = nil
	for len(lbns) > 0 {
		n := min(len(lbns), MaxLBNs)
		a.seq++
		p := &pendingRemap{a: a, seq: a.seq, lbns: lbns[:n:n]}
		a.pending[p.seq] = p
		p.start(a.node.Eng, p, &a.path, DefaultRetryMax)
		lbns = lbns[n:]
	}
}

// leaveRound ends one chunk's share of the round, acknowledged or abandoned
// alike — a round that waited for an ack that never comes would hold the
// queue for ever — and starts the next round when it was the last.
func (p *pendingRemap) leaveRound() {
	a := p.a
	delete(a.pending, p.seq)
	if len(a.pending) == 0 && len(a.queue) > 0 {
		a.sendRound()
	}
}

func (p *pendingRemap) transmit(again bool) {
	a := p.a
	if again {
		a.Stats.RemapRetries++
	} else {
		a.Stats.RemapsSent++
	}
	a.send(Msg{Type: MsgRemap, Server: uint16(a.server), Seq: p.seq, LBNs: p.lbns})
}

// abandon: exhausting the retries is counted, never silent.
func (p *pendingRemap) abandon() {
	p.a.Stats.RemapsAbandoned++
	p.a.Stats.LBNsAbandoned += uint64(len(p.lbns))
	p.leaveRound()
}

// handle runs one control-plane message against the agent.
func (a *Agent) handle(m Msg) {
	switch m.Type {
	case MsgRemapAck:
		// An ack for a chunk already acknowledged or abandoned finds no
		// entry and is ignored.
		if p, ok := a.pending[m.Seq]; ok && p.settle() {
			a.Stats.RemapsAcked++
			a.Stats.LBNsAnnounced += uint64(len(p.lbns))
			p.leaveRound()
		}

	case MsgInvalidate:
		a.handleInvalidate(m)

	default:
		a.Stats.Errors++
	}
}

// handleInvalidate applies one remote remap's invalidation and always acks
// it — retransmissions are deduplicated by (origin, seq), so the
// cache drop runs once while the lost-ack path still recovers.
func (a *Agent) handleInvalidate(m Msg) {
	a.Stats.InvalidationsRcvd++
	id := invalID{origin: m.Server, seq: m.Seq}
	if a.seen[id] {
		a.Stats.InvalidationDups++
	} else {
		a.seen[id] = true
		if a.invalidate != nil {
			a.invalidate(m.LBNs)
		}
		a.Stats.InvalidationsApplied++
	}
	a.send(Msg{
		Type:   MsgInvalidateAck,
		Server: m.Server,
		From:   uint16(a.server),
		Seq:    m.Seq,
	})
}
