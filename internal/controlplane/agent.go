package controlplane

import (
	"fmt"

	"ncache/internal/proto"
	"ncache/internal/proto/eth"
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
}

// invalID dedups invalidations: retransmissions of (origin, epoch, seq) are
// applied once and re-acked every time.
type invalID struct {
	origin uint16
	epoch  uint64
	seq    uint64
}

// pendingRemap is one unacknowledged remap announcement.
type pendingRemap struct {
	seq   uint64
	lbns  []int64
	tries int
	acked bool
}

// Agent is a front-end server's control-plane endpoint: it registers the
// server's return route, announces completed FHO→LBN remaps, and applies
// (and acknowledges) invalidations for remaps other servers performed.
type Agent struct {
	node   *simnet.Node
	dial   proto.Dialer
	local  eth.Addr
	cpAddr eth.Addr
	server int

	conn     proto.Conn
	framer   *Framer
	onReady  func(error)
	regTries int

	epoch   uint64
	seq     uint64
	pending map[uint64]*pendingRemap
	seen    map[invalID]bool

	invalidate func([]int64)

	Stats AgentStats
}

// NewAgent creates the endpoint for server index `server`, dialing the
// control plane at cp over the given transport.
func NewAgent(node *simnet.Node, dial proto.Dialer, local, cp eth.Addr, server int) *Agent {
	return &Agent{
		node:    node,
		dial:    dial,
		local:   local,
		cpAddr:  cp,
		server:  server,
		pending: make(map[uint64]*pendingRemap),
		seen:    make(map[invalID]bool),
	}
}

// SetInvalidate installs the callback that drops remapped blocks from this
// server's caches. Called once per applied invalidation, before the ack.
func (a *Agent) SetInvalidate(fn func([]int64)) { a.invalidate = fn }

// Epoch reports the highest placement epoch the agent has seen.
func (a *Agent) Epoch() uint64 { return a.epoch }

// Pending counts unacknowledged remap announcements (drain assertions).
func (a *Agent) Pending() int {
	n := 0
	for _, p := range a.pending { // det: commutative (count)
		if !p.acked {
			n++
		}
	}
	return n
}

// Register connects to the control plane and binds this server's route.
// done fires once the RegisterAck arrives (the registration itself rides
// the reliable path: a lost datagram register is retried on the remap
// timer granularity by re-calling Register — the passthru wiring runs it
// before any client traffic, so in practice one round trip).
func (a *Agent) Register(done func(error)) {
	a.onReady = done
	a.dial(a.local, a.cpAddr, Port, func(c proto.Conn, err error) {
		if err != nil {
			a.finishReady(err)
			return
		}
		a.conn = c
		a.framer = NewFramer(a.handle)
		c.SetReceiver(a.framer.Push)
		a.sendRegister()
	})
}

// sendRegister transmits the registration, re-arming a bounded retry until
// the ack lands (registration happens before measurement, so the timer dies
// young; the cap keeps engine drains finite if the control plane is down).
func (a *Agent) sendRegister() {
	if a.onReady == nil {
		return
	}
	if a.regTries >= DefaultRetryMax*4 {
		a.finishReady(fmt.Errorf("%s: register: no ack after %d tries", a, a.regTries))
		return
	}
	a.regTries++
	a.send(Msg{Type: MsgRegister, Server: uint16(a.server)})
	a.node.Eng.Schedule(DefaultRetryRTO, func() {
		if a.onReady != nil {
			a.sendRegister()
		}
	})
}

// finishReady fires the Register callback exactly once.
func (a *Agent) finishReady(err error) {
	if a.onReady != nil {
		done := a.onReady
		a.onReady = nil
		done(err)
	}
}

// send encodes and transmits one message on the agent's connection.
func (a *Agent) send(m Msg) {
	if a.conn == nil {
		a.Stats.Errors++
		return
	}
	ch, err := Encode(a.node.TxPool, m)
	if err != nil {
		a.Stats.Errors++
		return
	}
	if err := a.conn.SendChain(ch); err != nil {
		a.Stats.Errors++
	}
}

// SendRemap announces remapped LBNs to the control plane, chunked to the
// message limit, each chunk retried until acknowledged.
func (a *Agent) SendRemap(lbns []int64) {
	for len(lbns) > 0 {
		n := len(lbns)
		if n > MaxLBNs {
			n = MaxLBNs
		}
		a.seq++
		p := &pendingRemap{seq: a.seq, lbns: append([]int64(nil), lbns[:n]...)}
		a.pending[p.seq] = p
		a.transmitRemap(p)
		lbns = lbns[n:]
	}
}

// transmitRemap sends one chunk and arms its retry timer. The timer does
// not re-arm after the ack or after DefaultRetryMax tries, so engine drains
// terminate; exhausting the retries is counted, never silent.
func (a *Agent) transmitRemap(p *pendingRemap) {
	if p.tries == 0 {
		a.Stats.RemapsSent++
	} else {
		a.Stats.RemapRetries++
	}
	p.tries++
	a.send(Msg{Type: MsgRemap, Server: uint16(a.server), Epoch: a.epoch, Seq: p.seq, LBNs: p.lbns})
	a.node.Eng.Schedule(DefaultRetryRTO, func() {
		if p.acked {
			return
		}
		if p.tries >= DefaultRetryMax {
			a.Stats.RemapsAbandoned++
			p.acked = true
			return
		}
		a.transmitRemap(p)
	})
}

// handle runs one control-plane message against the agent.
func (a *Agent) handle(m Msg) {
	switch m.Type {
	case MsgRegisterAck:
		if m.Epoch > a.epoch {
			a.epoch = m.Epoch
		}
		a.finishReady(nil)

	case MsgRemapAck:
		if p, ok := a.pending[m.Seq]; ok && !p.acked {
			p.acked = true
			a.Stats.RemapsAcked++
		}

	case MsgInvalidate:
		a.handleInvalidate(m)

	default:
		a.Stats.Errors++
	}
}

// handleInvalidate applies one remote remap's invalidation and always acks
// it — retransmissions are deduplicated by (origin, epoch, seq), so the
// cache drop runs once while the lost-ack path still recovers.
func (a *Agent) handleInvalidate(m Msg) {
	a.Stats.InvalidationsRcvd++
	id := invalID{origin: m.Server, epoch: m.Epoch, seq: m.Seq}
	if a.seen[id] {
		a.Stats.InvalidationDups++
	} else {
		a.seen[id] = true
		if m.Epoch > a.epoch {
			a.epoch = m.Epoch
		}
		// Invalidation is monotone-safe: dropping a clean cached block is
		// always correct, so it applies regardless of epoch ordering.
		if a.invalidate != nil {
			a.invalidate(m.LBNs)
		}
		a.Stats.InvalidationsApplied++
	}
	a.send(Msg{
		Type:   MsgInvalidateAck,
		Server: m.Server,
		From:   uint16(a.server),
		Epoch:  m.Epoch,
		Seq:    m.Seq,
	})
}

// Close tears down the agent's connection.
func (a *Agent) Close() {
	if a.conn != nil {
		a.conn.Close()
		a.conn = nil
	}
}

// String identifies the agent in diagnostics.
func (a *Agent) String() string {
	return fmt.Sprintf("cp.agent(server=%d)", a.server)
}
