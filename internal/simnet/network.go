package simnet

import (
	"fmt"

	"ncache/internal/fault"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/sim"
)

// Network is a store-and-forward switch: every NIC attaches to one port
// over a full-duplex link. Forwarding looks up the destination address and
// serializes the frame onto the egress port's downlink. The fabric is
// lossless and preserves per-flow ordering, like the paper's NetGear gigabit
// switch under non-saturating load — unless a fault injector says otherwise.
type Network struct {
	eng     *sim.Engine
	latency sim.Duration
	ports   map[eth.Addr]*port
	// dropped counts frames discarded for unknown or self destinations.
	dropped uint64
	faults  *fault.Injector
	// faultDropped counts frames the injector discarded at switch
	// downlinks (transmit-side drops land on the NIC's own stats).
	faultDropped uint64
	// faultDuped counts extra frame copies the injector created at switch
	// downlinks.
	faultDuped uint64
	// onArrive and onDeliver are arrive and NIC.deliver as sim.Handlers,
	// bound once so a frame's two link crossings carry (port or NIC, frame,
	// corrupt) as arguments, not a closure.
	onArrive, onDeliver sim.Handler
}

// port is the switch side of one attachment: a downlink serializer toward
// the NIC, with the link's one-way latency (the switch default unless the
// attachment asked for a slower link).
type port struct {
	nic  *NIC
	down *sim.Resource
	bw   Bandwidth
	lat  sim.Duration
}

// NewNetwork returns an empty switch with the given one-way port latency.
func NewNetwork(eng *sim.Engine, latency sim.Duration) *Network {
	nw := &Network{
		eng:     eng,
		latency: latency,
		ports:   make(map[eth.Addr]*port),
	}
	nw.onArrive = func(p, frame any, corrupt int64) {
		nw.arrive(p.(*port), frame.(*netbuf.Chain), corrupt != 0)
	}
	nw.onDeliver = func(nic, frame any, corrupt int64) {
		nic.(*NIC).deliver(frame.(*netbuf.Chain), corrupt != 0)
	}
	return nw
}

// flag carries a frame's corrupt bit as a post's integer argument.
func flag(corrupt bool) int64 {
	if corrupt {
		return 1
	}
	return 0
}

// Attach creates a NIC on node, connected to this switch at the given
// address and bandwidth, and returns it. The NIC uses the testbed defaults:
// 1500-byte MTU and checksum offload on, and the switch's default one-way
// link latency.
func (nw *Network) Attach(node *Node, addr eth.Addr, bw Bandwidth) (*NIC, error) {
	return nw.AttachAt(node, addr, bw, nw.latency)
}

// AttachAt is Attach with an explicit one-way link latency for this port —
// a client reaching the fabric over a longer path (LAN hop, WAN link) pays
// it in both directions.
func (nw *Network) AttachAt(node *Node, addr eth.Addr, bw Bandwidth, latency sim.Duration) (*NIC, error) {
	if _, exists := nw.ports[addr]; exists {
		return nil, fmt.Errorf("simnet: address %s already attached", addr)
	}
	nic := &NIC{
		Addr:            addr,
		MTU:             netbuf.DefaultBufSize,
		ChecksumOffload: true,
		node:            node,
		net:             nw,
		tx:              sim.NewResource(node.Eng),
		bw:              bw,
		latency:         latency,
		txSite:          node.Name + ".tx",
		rxSite:          node.Name + ".rx",
	}
	nw.ports[addr] = &port{
		nic:  nic,
		down: sim.NewResource(node.Eng),
		bw:   bw,
		lat:  latency,
	}
	node.nics = append(node.nics, nic)
	return nic, nil
}

// Dropped reports frames discarded for unknown destinations.
func (nw *Network) Dropped() uint64 { return nw.dropped }

// SetFaults installs the fault injector consulted on every frame. Nil (the
// default) disables injection.
func (nw *Network) SetFaults(in *fault.Injector) { nw.faults = in }

// FaultDropped reports frames the injector discarded at switch downlinks.
func (nw *Network) FaultDropped() uint64 { return nw.faultDropped }

// FaultDuped reports extra frame copies the injector created at switch
// downlinks.
func (nw *Network) FaultDuped() uint64 { return nw.faultDuped }

// route resolves the egress port for a frame, or nil when the switch would
// discard it (unparseable header, unknown destination, or hairpin to the
// sender).
func (nw *Network) route(from *NIC, frame *netbuf.Chain) *port {
	hdr, err := eth.Peek(frame)
	if err != nil {
		return nil
	}
	p, ok := nw.ports[hdr.Dst]
	if !ok || p.nic == from {
		return nil
	}
	return p
}

// arrive runs when a frame reaches the switch egress: the receive-side fault
// decision, then downlink serialization, posting delivery for when the
// serializer is done plus any injected delay. The port latency was already
// paid with the uplink's (see NIC.launch). A frame with no egress port
// (unroutable) has paid its wire time and is discarded here.
func (nw *Network) arrive(p *port, frame *netbuf.Chain, corrupt bool) {
	if p == nil {
		nw.dropped++
		frame.Release()
		return
	}
	d := nw.faults.FrameRx(p.nic.rxSite)
	if d.Drop {
		nw.faultDropped++
		frame.Release()
		return
	}
	flags := flag(corrupt || d.Corrupt)
	ser := p.bw.serialization(frame.Len() + FrameOverheadBytes)
	nw.eng.PostAt(p.down.Use(ser, nil).Add(d.Delay), nw.onDeliver, p.nic, frame, flags)
	if d.Dup {
		// Injected duplicate at the downlink: a by-reference copy clocked
		// after the original.
		dup := frame.Clone()
		nw.faultDuped++
		nw.eng.PostAt(p.down.Use(ser, nil), nw.onDeliver, p.nic, dup, flags)
	}
}
