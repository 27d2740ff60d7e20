package simnet

import (
	"fmt"
	"sync/atomic"

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
	// ports is immutable once traffic starts (attachments happen at build
	// time), so route lookups are safe from any shard without locking.
	ports map[eth.Addr]*port
	// dropped counts frames discarded for unknown or self destinations.
	// The drop/arrive counters are atomics because frames from different
	// source shards account concurrently; they are commutative sums, so
	// totals are deterministic for any worker count.
	dropped atomic.Uint64
	faults  *fault.Injector
	// faultDropped counts frames the injector discarded at switch
	// downlinks (transmit-side drops land on the NIC's own stats).
	faultDropped atomic.Uint64
	// faultDuped counts extra frame copies the injector created at switch
	// downlinks.
	faultDuped atomic.Uint64
	// onArrive is arrive as a sim.Handler, bound once so a frame's shard
	// crossing carries (port, frame, corrupt) as arguments, not a closure.
	onArrive sim.Handler
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
	return nw
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
// it in both directions. It must be at least the switch latency: the
// fabric latency is the global floor the sharded engine's default
// lookahead is derived from, and a faster-than-fabric link would break
// that contract.
func (nw *Network) AttachAt(node *Node, addr eth.Addr, bw Bandwidth, latency sim.Duration) (*NIC, error) {
	if _, exists := nw.ports[addr]; exists {
		return nil, fmt.Errorf("simnet: address %s already attached", addr)
	}
	if latency < nw.latency {
		return nil, fmt.Errorf("simnet: link latency %s below switch latency %s", latency, nw.latency)
	}
	nic := &NIC{
		Addr:            addr,
		MTU:             netbuf.DefaultBufSize,
		ChecksumOffload: true,
		node:            node,
		net:             nw,
		tx:              sim.NewResource(node.Eng, fmt.Sprintf("%s.%s.tx", node.Name, addr)),
		bw:              bw,
		latency:         latency,
		txSite:          node.Name + ".tx",
		rxSite:          node.Name + ".rx",
	}
	nic.ring = newRxRing(nic, DefaultRxRingSize)
	// The downlink serializer lives on the destination node's shard: frames
	// arriving for this port are clocked in destination-shard time. On a
	// sequential engine node.Eng is the switch engine, as before.
	nw.ports[addr] = &port{
		nic:  nic,
		down: sim.NewResource(node.Eng, fmt.Sprintf("sw.%s.down", addr)),
		bw:   bw,
		lat:  latency,
	}
	node.nics = append(node.nics, nic)
	return nic, nil
}

// Dropped reports frames discarded for unknown destinations.
func (nw *Network) Dropped() uint64 { return nw.dropped.Load() }

// Latency returns the one-way port latency — the sharded engine's lookahead
// floor, since no frame crosses nodes in less than one port traversal.
func (nw *Network) Latency() sim.Duration { return nw.latency }

// SetFaults installs the fault injector consulted on every frame. Nil (the
// default) disables injection.
func (nw *Network) SetFaults(in *fault.Injector) { nw.faults = in }

// Faults returns the installed injector (nil when faults are off).
func (nw *Network) Faults() *fault.Injector { return nw.faults }

// FaultDropped reports frames the injector discarded at switch downlinks.
func (nw *Network) FaultDropped() uint64 { return nw.faultDropped.Load() }

// FaultDuped reports extra frame copies the injector created at switch
// downlinks.
func (nw *Network) FaultDuped() uint64 { return nw.faultDuped.Load() }

// route resolves the egress port for a frame, or nil when the switch would
// discard it (unparseable header, unknown destination, or hairpin to the
// sender). Pure lookup against the immutable port table, so the sending
// shard can resolve the destination at transmit time.
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

// drop discards an unroutable frame once it has paid its wire time.
func (nw *Network) drop(frame *netbuf.Chain) {
	nw.dropped.Add(1)
	frame.Release()
}

// arrive runs on the destination node's shard when a frame reaches the
// switch egress: the receive-side fault decision and downlink
// serialization unfold in destination-shard time — byte-identical to the
// old single-engine forward, since the port's downlink lives on node.Eng.
// The port latency was already paid on the shard crossing (see
// NIC.launch), so delivery happens straight off the serializer.
func (nw *Network) arrive(p *port, frame *netbuf.Chain, corrupt bool) {
	node := p.nic.node
	d := nw.faults.FrameRx(node.Eng, p.nic.rxSite)
	if d.Drop {
		nw.faultDropped.Add(1)
		frame.Release()
		return
	}
	corrupt = corrupt || d.Corrupt
	wire := frame.Len() + FrameOverheadBytes
	f := node.flight(flightDown, frame)
	f.port, f.delay, f.corrupt = p, d.Delay, corrupt
	p.down.Use(p.bw.serialization(wire), f.step)
	if d.Dup {
		// Injected duplicate at the downlink: a by-reference copy clocked
		// after the original.
		dup := frame.Clone()
		nw.faultDuped.Add(1)
		f := node.flight(flightDown, dup)
		f.port, f.corrupt = p, corrupt
		p.down.Use(p.bw.serialization(wire), f.step)
	}
}
