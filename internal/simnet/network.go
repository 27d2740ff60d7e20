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
	// onArrive, onDepart and onDeliver are arrive, depart and NIC.deliver
	// as sim.Handlers, bound once so a post carries (port or NIC, frame,
	// corrupt) as arguments, not a closure.
	onArrive, onDepart, onDeliver sim.Handler
}

// port is the switch side of one attachment: the downlink toward the NIC,
// with the link's one-way latency (the switch default unless the attachment
// asked for a slower link). The downlink serves the frames booked for it
// one at a time, by arrival at the egress, then launch order. Only the
// first has an event in the engine, due when its serialization ends.
type port struct {
	nic *NIC
	bw  Bandwidth
	lat sim.Duration
	// q is a binary min-heap of the booked frames; ev is q[0]'s event. A
	// heap, not a list: a frame from an idle uplink can arrive ahead of
	// hundreds booked from uplinks whose CPUs are backlogged.
	q  []booked
	ev sim.EventID
	// free is when the downlink finished its last frame.
	free sim.Time
}

// booked is a frame queued for a downlink. Its key is that of the delivery
// an event at its arrival would have posted: Posted is the arrival and Seq
// was reserved when the frame was booked; At is set when it heads the queue.
type booked struct {
	frame   *netbuf.Chain
	ctx     any // request context of the booking event
	key     sim.Key
	delay   sim.Duration // injected at the downlink, after serialization
	corrupt bool
}

// before reports whether b leaves the downlink ahead of c.
func (b *booked) before(c *booked) bool {
	return b.key.Posted < c.key.Posted || b.key.Posted == c.key.Posted && b.key.Seq < c.key.Seq
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
	nw.onDepart = func(p, _ any, _ int64) { nw.depart(p.(*port)) }
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
	nw.ports[addr] = &port{nic: nic, bw: bw, lat: latency}
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

// arrive runs when a frame reaches the switch egress of a port whose receive
// site a frame-fault schedule names, so that the schedule draws in arrival
// order: the receive-side fault decision, then booking for the downlink. The
// port latency was already paid with the uplink's (see NIC.launch). A frame
// with no egress port (unroutable) has paid its wire time and is discarded
// here.
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
	now := nw.eng.Now()
	nw.book(p, frame, now, d.Delay, corrupt || d.Corrupt)
	if d.Dup {
		// Injected duplicate at the downlink: a by-reference copy clocked
		// after the original.
		nw.faultDuped++
		nw.book(p, frame.Clone(), now, 0, corrupt || d.Corrupt)
	}
}

// book queues a frame that reaches p's egress at instant at. It is the only
// way onto a downlink, and the sequence number it reserves is the newest, so
// equal arrivals leave in launch order. A frame that lands first takes over
// the port's one event.
func (nw *Network) book(p *port, frame *netbuf.Chain, at sim.Time, delay sim.Duration, corrupt bool) {
	ctx := nw.eng.Context()
	p.q = append(p.q, booked{frame, ctx, sim.Key{Posted: at, Seq: nw.eng.Reserve()}, delay, corrupt})
	q, i := p.q, len(p.q)-1
	for ; i > 0 && q[i].before(&q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
	if i == 0 {
		nw.eng.Cancel(p.ev)
		p.ev = nw.eng.PostKeyed(p.due(), ctx, nw.onDepart, p, nil, 0)
	}
}

// due keys the first frame's event: its serialization starts at its arrival
// or when the downlink frees, whichever is later.
func (p *port) due() sim.Key {
	b := &p.q[0]
	b.key.At = max(b.key.Posted, p.free).Add(p.bw.serialization(b.frame.Len() + FrameOverheadBytes))
	return b.key
}

// depart runs when the first frame's serialization ends: the next frame
// takes the port's event, and the first is delivered, after any injected
// delay.
func (nw *Network) depart(p *port) {
	q, n := p.q, len(p.q)-1
	b := q[0]
	q[0], q[n] = q[n], booked{}
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if c >= n || !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	p.q, p.free = q, nw.eng.Now()
	if n > 0 {
		p.ev = nw.eng.PostKeyed(p.due(), q[0].ctx, nw.onDepart, p, nil, 0)
	}
	if b.delay > 0 {
		b.key.At = p.free.Add(b.delay)
		nw.eng.PostKeyed(b.key, b.ctx, nw.onDeliver, p.nic, b.frame, flag(b.corrupt))
		return
	}
	p.nic.deliver(b.frame, b.corrupt)
}
