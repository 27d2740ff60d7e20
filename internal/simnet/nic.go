package simnet

import (
	"fmt"

	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// Bandwidth is a link speed in bits per second.
type Bandwidth int64

// Common link speeds.
const (
	Mbps Bandwidth = 1_000_000
	Gbps Bandwidth = 1_000_000_000
)

// serialization returns the time to clock n bytes onto a link of this speed.
func (bw Bandwidth) serialization(n int) sim.Duration {
	if bw <= 0 {
		return 0
	}
	return sim.Duration(int64(n) * 8 * int64(sim.Second) / int64(bw))
}

// FrameOverheadBytes models preamble, CRC and inter-frame gap on each frame,
// beyond the bytes carried in the chain.
const FrameOverheadBytes = 24

// RxHandler receives frames delivered to a NIC at the instant at. A frame is
// delivered in an event at its instant, or handed over quiet: later, but
// ahead of anything its node does after that instant (Node.HandOver), and
// with a later frame of its train certain to be delivered on this NIC (see
// NIC.EndTrain). Implementations charge their own CPU costs, from at.
type RxHandler func(frame *netbuf.Chain, at sim.Time, quiet bool)

// NIC is a network interface: an address, a transmit serializer at the
// link's bandwidth and checksum-offload capability.
type NIC struct {
	Addr eth.Addr
	MTU  int
	// ChecksumOffload mirrors the Intel Pro/1000 capability the testbed
	// enabled: transport checksums cost no CPU on this interface.
	ChecksumOffload bool
	Stats           metrics.Net

	node    *Node
	net     *Network
	port    *port // the switch side of the link
	tx      *sim.Resource
	rx      RxHandler
	bw      Bandwidth
	latency sim.Duration
	// txSite / rxSite name this NIC's fault-injection sites ("<node>.tx",
	// "<node>.rx"), built once at attach instead of per frame.
	txSite, rxSite string
	// held collects the bookings of the open train (StartTrain) and
	// charged counts its frames.
	held    []hold
	charged int
	holding bool
}

// hold is a booking a train defers until all of its frames have launched.
type hold struct {
	p *port
	b booked
}

// SetRxHandler installs the function invoked for each delivered frame.
func (n *NIC) SetRxHandler(h RxHandler) { n.rx = h }

// TxUtilization reports the transmit serializer's utilization since its
// stats were last reset — how close this NIC is to line rate.
func (n *NIC) TxUtilization() float64 { return n.tx.Utilization() }

// ResetStats zeroes wire counters and the transmit serializer's window.
func (n *NIC) ResetStats() {
	n.node.HandOver()
	n.Stats = metrics.Net{}
	n.tx.ResetStats()
}

// Send clocks a fully framed chain (link header already pushed) onto the
// wire. The frame must fit in MTU + headers. Delivery is asynchronous; the
// NIC owns the chain's references from this point.
func (n *NIC) Send(frame *netbuf.Chain) error {
	frame.SetHolder(nil)
	return n.send(frame, n.node.Eng.Now())
}

// send is Send for a frame that departs at the instant at: later than now
// when ChargeSend books the departure ahead, now otherwise.
func (n *NIC) send(frame *netbuf.Chain, at sim.Time) error {
	size := frame.Len()
	if size > n.MTU+eth.HeaderLen {
		return fmt.Errorf("simnet: frame %d bytes exceeds MTU %d on %s", size, n.MTU, n.Addr)
	}
	d := n.net.faults.FrameTx(n.txSite)
	if d.Drop {
		n.Stats.FaultDropTx++
		frame.Release()
		return nil
	}
	n.Stats.PacketsTx++
	n.Stats.BytesTx += uint64(size)
	// From departure the request is on the wire: transmit queueing,
	// serialization and link latency all belong to the network.
	trace.ToAt(n.node.Eng, trace.LNet, at)
	p := n.net.route(n, frame)
	wire := size + FrameOverheadBytes
	n.launch(p, frame, wire, at, n.latency+d.Delay, d.Corrupt)
	if d.Dup {
		// Injected duplicate: an extra copy of the frame, clocked onto the
		// wire like any other (it shares the payload buffers by reference).
		dup := frame.Clone()
		n.Stats.FaultDupTx++
		n.Stats.PacketsTx++
		n.Stats.BytesTx += uint64(size)
		n.launch(p, dup, wire, at, n.latency, false)
	}
	return nil
}

// launch clocks one frame copy onto the uplink from the instant at and books
// it for the egress port's downlink from when the serializer is done plus
// the uplink AND downlink latencies (plus any injected delay). A port whose
// receive site a frame-fault schedule names, and an unroutable frame (nil
// p), get an arrival event at that instant instead; the latter pays the same
// wire time without the egress latency, and the switch counts the discard.
//
// The egress port's latency is paid here, with the uplink's, rather than
// after downlink serialization: every frame into a port pays the same
// constant, so queue waits commute with it and the timing is identical.
func (n *NIC) launch(p *port, frame *netbuf.Chain, wire int, at sim.Time, delay sim.Duration, corrupt bool) {
	arrive := n.tx.UseFrom(at, n.bw.serialization(wire)).Add(delay)
	if p != nil {
		arrive = arrive.Add(p.lat)
		if !n.net.faults.DrawsFrames(p.nic.rxSite) {
			eng := n.node.Eng
			b := booked{frame: frame, ctx: eng.Context(), key: sim.Key{Posted: arrive, Seq: eng.Reserve()},
				ser: p.bw.serialization(wire), corrupt: corrupt}
			if n.holding {
				n.held = append(n.held, hold{p, b})
				return
			}
			n.net.book(p, b)
			return
		}
	}
	n.node.Eng.PostAt(arrive, n.net.onArrive, p, frame, flag(corrupt))
}

// ChargeSend charges the node's CPU d of per-packet transmit work, then
// Sends frame, releasing it if the NIC refuses it. The frame departs when
// the CPU time ends, but no event marks that instant: every frame this NIC
// sends is charged to its node's FIFO CPU, so charge order is departure
// order, and the uplink is reserved now from the CPU's finish. Only a NIC
// whose transmit site a frame-fault schedule names departs in an event of
// its own, because the schedule's draws must be taken in the order frames
// depart from every site it names.
func (n *NIC) ChargeSend(d sim.Duration, frame *netbuf.Chain) {
	if n.holding {
		n.charged++
	}
	frame.SetHolder(nil)
	at := n.node.CPU.Use(d, nil)
	if n.net.faults.DrawsFrames(n.txSite) {
		n.node.Eng.PostAt(at, sendFrame, n, frame, 0)
		return
	}
	if err := n.send(frame, at); err != nil {
		frame.Release()
	}
}

// ChargeSendTrain is ChargeSend for each frame of one datagram, in order, as
// one train whose frames but the last may cross quiet (see EndTrain): the
// last, on the same downlink behind them, completes the datagram.
func (n *NIC) ChargeSendTrain(d sim.Duration, frames []*netbuf.Chain) {
	n.StartTrain()
	for _, f := range frames {
		n.ChargeSend(d, f)
	}
	n.EndTrain(nil)
}

// StartTrain opens a train: the frames this NIC is charged to send, all to
// one destination, are launched as usual but wait to be booked on the egress
// downlink until EndTrain. That changes nothing: no event runs between a
// train's launches, and each frame's place on the downlink was fixed when it
// launched.
func (n *NIC) StartTrain() { n.holding = true }

// EndTrain closes a train and books its frames. Once every frame charged in
// it has launched onto a path no frame-fault schedule names, the i-th is
// quiet if quiet is nil or quiet[i] holds, unless it is the last: it holds
// no event of its own, and nothing waits on its delivery but its node, until
// the last, loud, frame behind it departs. The sender vouches that this
// holds: a later fragment completes its datagram, or its transport defers
// the frame's effect (see tcp.Conn.pump).
func (n *NIC) EndTrain(quiet []bool) {
	n.holding = false
	all := len(n.held) == n.charged && (quiet == nil || len(quiet) == n.charged)
	for i, h := range n.held {
		h.b.quiet = all && i < len(n.held)-1 && (quiet == nil || quiet[i])
		n.net.book(h.p, h.b)
	}
	clear(n.held)
	n.held, n.charged = n.held[:0], 0
}

// PeerOffloads reports whether the NIC attached at dst offloads transport
// checksums.
func (n *NIC) PeerOffloads(dst eth.Addr) bool {
	p, ok := n.net.ports[dst]
	return ok && p.nic.ChecksumOffload
}

// sendFrame departs a frame a fault schedule may strike.
func sendFrame(nic, frame any, _ int64) {
	f := frame.(*netbuf.Chain)
	if err := nic.(*NIC).Send(f); err != nil {
		f.Release()
	}
}

// deliver hands a frame arriving from the fabric to the receive handler.
// Corrupt frames paid for their wire time but fail checksum verification
// here, so they are counted and discarded without reaching the stack.
func (n *NIC) deliver(frame *netbuf.Chain, corrupt bool) {
	if corrupt {
		n.Stats.FaultCorruptRx++
		frame.Release()
		return
	}
	n.receive(frame, n.node.Eng.Now(), false)
}

// receive counts a frame delivered at the instant at and hands it on.
func (n *NIC) receive(frame *netbuf.Chain, at sim.Time, quiet bool) {
	n.Stats.PacketsRx++
	n.Stats.BytesRx += uint64(frame.Len())
	frame.SetHolder(n.node.TxPool)
	if n.rx == nil {
		frame.Release()
		return
	}
	n.rx(frame, at, quiet)
}
