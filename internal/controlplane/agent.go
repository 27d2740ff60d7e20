package controlplane

import (
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
	"ncache/internal/sunrpc"
)

// AgentStats counts one front-end server's protocol activity.
type AgentStats struct {
	// RemapsSent counts REMAP calls; RemapRetries their resends, brought up
	// to date as each round settles.
	RemapsSent           uint64
	RemapRetries         uint64
	RemapsAcked          uint64
	RemapsAbandoned      uint64
	InvalidationsRcvd    uint64
	InvalidationsApplied uint64
	InvalidationDups     uint64
	Errors               uint64
	// LBNsQueued counts the blocks handed to SendRemap; LBNsAnnounced those
	// whose round was acknowledged and LBNsAbandoned those whose round was
	// given up on. What the first exceeds the other two by is waiting for a
	// round or in one, and is zero once the agent has drained.
	LBNsQueued    uint64
	LBNsAnnounced uint64
	LBNsAbandoned uint64
}

// Agent is a front-end server's control-plane endpoint: it calls REMAP on
// the control node to announce completed FHO→LBN remaps, and serves
// INVALIDATE on Port for remaps other servers performed.
type Agent struct {
	// rpc calls the control node; its round-trip estimate includes the
	// invalidation fan-out a REMAP's reply waits for. srv serves
	// INVALIDATE.
	rpc *sunrpc.Client
	srv *sunrpc.Server

	cp     eth.Addr
	server int

	seq uint64
	// queue holds the LBNs announced while a round is in flight, in announce
	// order; round counts the LBNs of that round, 0 when none is.
	queue []int64
	round int
	// applied[o] is the last seq applied of origin o, whose one remap in
	// flight makes anything at or below it a retransmission. The control
	// plane refuses origins outside the member set, which bounds its length.
	applied []uint64
	// lbns is the block list of the INVALIDATE being served.
	lbns []int64

	invalidate func([]int64)
	// remapped is remapDone, bound once.
	remapped func(sunrpc.Reply, error)

	Stats AgentStats
}

// NewAgent creates the endpoint for server index `server` on the server's
// UDP transport, at its address local, calling and heard only by the
// control plane at cp.
func NewAgent(t *udp.Transport, local, cp eth.Addr, server int) (*Agent, error) {
	rpc, err := dial(t, local, Port+1, cp)
	if err != nil {
		return nil, err
	}
	// The incarnation leads the seq: a restarted server's remaps sort after the dead one's.
	a := &Agent{rpc: rpc, srv: sunrpc.NewServer(t.Node()), cp: cp, server: server,
		seq: uint64(t.Node().Incarnation()) << 32}
	a.remapped = a.remapDone
	a.srv.Register(prog, vers, procInvalidate, a.handleInvalidate)
	if err := a.srv.ServeUDP(t, Port); err != nil {
		return nil, err
	}
	return a, nil
}

// SetInvalidate installs the callback that drops remapped blocks from this
// server's caches. Called once per applied invalidation, before the reply;
// the slice is valid only during the call.
func (a *Agent) SetInvalidate(fn func([]int64)) { a.invalidate = fn }

// SendRemap announces remapped LBNs to the control plane, one round in
// flight at a time: with none in flight the LBNs leave now, otherwise they
// wait for it to settle and leave with everything else announced meanwhile.
// An idle path therefore announces immediately and a loaded one batches by
// exactly as much as the load delays it — no timer, no threshold.
func (a *Agent) SendRemap(lbns []int64) {
	a.Stats.LBNsQueued += uint64(len(lbns))
	a.queue = append(a.queue, lbns...)
	if a.round == 0 && len(a.queue) > 0 {
		a.sendRound()
	}
}

// sendRound calls REMAP with the first MaxLBNs queued LBNs; the rest wait
// for the next round.
func (a *Agent) sendRound() {
	a.round = min(len(a.queue), MaxLBNs)
	a.seq++
	a.Stats.RemapsSent++
	err := call(a.rpc, procRemap, a.server, a.seq, a.queue[:a.round], a.remapped)
	a.queue = a.queue[:copy(a.queue, a.queue[a.round:])]
	if err != nil {
		a.Stats.Errors++
		a.remapDone(sunrpc.Reply{}, err)
	}
}

// remapDone ends the round in flight, acknowledged or abandoned alike — a
// round that waited for an ack that never comes would hold the queue for
// ever — and starts the next if anything is queued. Giving up is counted,
// never silent.
func (a *Agent) remapDone(r sunrpc.Reply, err error) {
	release(r)
	if err == nil && r.Accept == sunrpc.AcceptSuccess {
		a.Stats.RemapsAcked++
		a.Stats.LBNsAnnounced += uint64(a.round)
	} else {
		a.Stats.RemapsAbandoned++
		a.Stats.LBNsAbandoned += uint64(a.round)
	}
	a.Stats.RemapRetries = a.rpc.Retransmits
	a.round = 0
	if len(a.queue) > 0 {
		a.sendRound()
	}
}

// handleInvalidate applies one remote remap's invalidation and always
// replies — retransmissions are recognised by applied, so the cache drop
// runs once while the lost-reply path still recovers. A call from anywhere
// but the control plane is refused unanswered.
func (a *Agent) handleInvalidate(c sunrpc.Call) {
	if c.Src != a.cp {
		c.Body.Release()
		a.Stats.Errors++
		return
	}
	origin, seq, lbns, err := decodeArgs(c.Body, a.lbns)
	a.lbns = lbns
	if err != nil {
		a.Stats.Errors++
		_ = c.ReplyError(sunrpc.AcceptGarbageArgs) // counted in Errors either way
		return
	}
	a.Stats.InvalidationsRcvd++
	if origin >= len(a.applied) {
		a.applied = append(a.applied, make([]uint64, origin+1-len(a.applied))...)
	}
	if seq <= a.applied[origin] {
		a.Stats.InvalidationDups++
	} else {
		a.applied[origin] = seq
		if a.invalidate != nil {
			a.invalidate(lbns)
		}
		a.Stats.InvalidationsApplied++
	}
	if ack(c) != nil {
		a.Stats.Errors++
	}
}
