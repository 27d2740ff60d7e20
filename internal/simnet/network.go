package simnet

import (
	"fmt"
	"slices"

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
	// nodes lists the attached nodes, in attach order (see Node.Kill).
	nodes []*Node
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
// one at a time, by arrival at the egress, then launch order. A quiet frame
// holds no event: only the first frame that is not quiet has one, due when
// its serialization ends, and the quiet frames ahead of it are handed to the
// NIC when it fires, or before, when their node needs them (Node.HandOver).
type port struct {
	nic *NIC
	bw  Bandwidth
	lat sim.Duration
	// q[h:] orders the booked frames, as indices into recs (spare lists
	// the free slots): a list, so that the frames ahead of each are known;
	// of indices, so that a frame from an idle uplink, which lands ahead
	// of hundreds booked from backlogged ones, moves 4 bytes of each. The
	// first timed have their departures (key.At) worked out from free.
	// The first loud are quiet, and ev is the event of the one behind them.
	q     []int32
	h     int
	recs  []booked
	spare []int32
	timed int
	loud  int
	ev    sim.EventID
	// free is when the downlink finished its last frame.
	free sim.Time
}

// booked is a frame queued for a downlink. Its key is that of the delivery
// an event at its arrival would have posted: Posted is the arrival and Seq
// was reserved when the frame launched; At is its departure, once timed.
type booked struct {
	frame   *netbuf.Chain
	ctx     any // request context of the booking event
	key     sim.Key
	ser     sim.Duration // serialization on the downlink
	delay   sim.Duration // injected at the downlink, after serialization
	corrupt bool
	// quiet: nothing waits on the frame's delivery but its node until a later
	// frame on this downlink, from its train, departs (see NIC.EndTrain).
	quiet bool
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
	nic.port = &port{nic: nic, bw: bw, lat: latency}
	nw.ports[addr] = nic.port
	if !slices.Contains(nw.nodes, node) {
		nw.nodes = append(nw.nodes, node)
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
	b := booked{frame: frame, ctx: nw.eng.Context(), key: sim.Key{Posted: nw.eng.Now(), Seq: nw.eng.Reserve()},
		ser: p.bw.serialization(frame.Len() + FrameOverheadBytes), delay: d.Delay, corrupt: corrupt || d.Corrupt}
	nw.book(p, b)
	if d.Dup {
		// Injected duplicate at the downlink: a by-reference copy clocked
		// after the original.
		nw.faultDuped++
		b.frame, b.delay, b.key.Seq = frame.Clone(), 0, nw.eng.Reserve()
		nw.book(p, b)
	}
}

// book queues a frame on p's downlink. It is the only way onto one, and a
// frame's sequence number, reserved when it reached the egress or launched
// toward it, is the newest, so equal arrivals leave in launch order. The
// frame that holds the port's event is re-keyed when a frame lands ahead of
// it, and replaced by one that needs an event.
func (nw *Network) book(p *port, b booked) {
	var r int32
	if n := len(p.spare); n > 0 {
		r, p.spare = p.spare[n-1], p.spare[:n-1]
		p.recs[r] = b
	} else {
		r = int32(len(p.recs))
		p.recs = append(p.recs, b)
	}
	if len(p.q) == cap(p.q) && p.h > 0 {
		p.q, p.h = p.q[:copy(p.q, p.q[p.h:])], 0
	}
	// The frame goes behind every frame arriving no later: usually last.
	q := p.q[p.h:]
	lo, i := 0, len(q)
	for lo < i && p.recs[q[i-1]].key.Posted > b.key.Posted {
		if m := (lo + i) / 2; p.recs[q[m]].key.Posted > b.key.Posted {
			i = m
		} else {
			lo = m + 1
		}
	}
	p.q = append(p.q, 0)
	copy(p.q[p.h+i+1:], p.q[p.h+i:])
	p.q[p.h+i] = r
	p.timed = min(p.timed, i)
	if b.quiet {
		p.nic.node.quiet++
	}
	switch {
	case i > p.loud:
		return
	case b.quiet:
		p.loud++
		if p.h+p.loud == len(p.q) {
			return
		}
	default:
		p.loud = i
	}
	nw.eng.Cancel(p.ev)
	p.ev = nw.eng.PostKeyed(p.key(p.loud), p.at(p.loud).ctx, nw.onDepart, p, nil, 0)
}

// at returns the i-th frame booked.
func (p *port) at(i int) *booked { return &p.recs[p.q[p.h+i]] }

// key times the frames up to the i-th and returns its key: each frame's
// serialization starts at its arrival or when the frame ahead departs,
// whichever is later.
func (p *port) key(i int) sim.Key {
	for ; p.timed <= i; p.timed++ {
		prev := p.free
		if p.timed > 0 {
			prev = p.at(p.timed - 1).key.At
		}
		b := p.at(p.timed)
		b.key.At = max(b.key.Posted, prev).Add(b.ser)
	}
	return p.at(i).key
}

// pop takes the first frame off the downlink, as departed.
func (p *port) pop() booked {
	r := p.q[p.h]
	b := p.recs[r]
	p.recs[r] = booked{}
	p.spare = append(p.spare, r)
	p.h++
	if p.h == len(p.q) {
		p.q, p.h = p.q[:0], 0
	}
	p.timed = max(p.timed-1, 0)
	p.free = b.key.At
	return b
}

// handHead hands the first frame, a quiet one, to the NIC.
func (p *port) handHead() {
	p.key(0)
	b := p.pop()
	p.loud--
	p.nic.node.quiet--
	p.nic.receive(b.frame, b.key.At, true)
}

// depart runs when the first frame that is not quiet departs: the quiet
// frames ahead of it are handed over, the next frame that needs an event
// takes the port's, and the frame is delivered, after any injected delay.
func (nw *Network) depart(p *port) {
	p.nic.node.HandOver()
	b := p.pop()
	p.loud = 0
	for p.h+p.loud < len(p.q) && p.at(p.loud).quiet {
		p.loud++
	}
	if p.h+p.loud < len(p.q) {
		p.ev = nw.eng.PostKeyed(p.key(p.loud), p.at(p.loud).ctx, nw.onDepart, p, nil, 0)
	}
	if b.delay > 0 {
		b.key.At = p.free.Add(b.delay)
		nw.eng.PostKeyed(b.key, b.ctx, nw.onDeliver, p.nic, b.frame, flag(b.corrupt))
		return
	}
	p.nic.deliver(b.frame, b.corrupt)
}
