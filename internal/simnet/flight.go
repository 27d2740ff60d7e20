package simnet

import (
	"ncache/internal/netbuf"
	"ncache/internal/sim"
)

// flight is the recycled in-flight record of one frame copy: it carries what
// the per-frame closures used to capture through one node's half of a hop
// (tx serializer → launch on the sender; downlink serializer → delay →
// deliver on the receiver) and through the per-packet CPU charges on either
// side. step is bound once, when the record is first allocated, so handing
// it to Resource.Use or Schedule costs nothing.
//
// A record is taken from and returned to the free list of the node it runs
// on; the frame crosses to the receiving node as the arguments of the one
// Post in run (handled by Network.onArrive), never inside a record. In netbuf
// debug mode records are not recycled, like descriptors.
type flight struct {
	node    *Node
	stage   flightStage
	nic     *NIC  // flightTx, flightSend: sender; flightDeliver: receiver
	port    *port // flightTx: egress port (nil when unroutable); flightDown
	frame   *netbuf.Chain
	then    func(*netbuf.Chain) // flightCharge continuation
	delay   sim.Duration
	corrupt bool
	step    func()
}

type flightStage uint8

const (
	flightTx      flightStage = iota // clocked onto the uplink: cross to the egress port
	flightDrop                       // unroutable frame paid its wire time
	flightDown                       // clocked onto the downlink: wait out any injected delay
	flightDeliver                    // hand to the receiving NIC
	flightSend                       // CPU charged: transmit on nic (NIC.ChargeSend)
	flightCharge                     // CPU charged: run then(frame) (Node.ChargeFrame)
)

// flight returns a blank record owned by n.
func (n *Node) flight(stage flightStage, frame *netbuf.Chain) *flight {
	f := n.flights.Take()
	if f == nil {
		f = &flight{node: n}
		f.step = f.run
	}
	f.stage, f.frame = stage, frame
	return f
}

// run advances the frame one step. Stages that end the record's journey copy
// their fields out and recycle it before calling on, so the callee's own
// record request reuses the same object.
func (f *flight) run() {
	nic, p, frame, corrupt := f.nic, f.port, f.frame, f.corrupt
	eng := f.node.Eng
	switch f.stage {
	case flightTx:
		if p == nil {
			f.stage = flightDrop
			eng.Schedule(f.delay, f.step)
			return
		}
		delay := f.delay + p.lat
		f.recycle()
		var flags int64
		if corrupt {
			flags = 1
		}
		eng.Post(delay, nic.net.onArrive, p, frame, flags)
	case flightDown:
		f.stage, f.nic = flightDeliver, p.nic
		eng.Schedule(f.delay, f.step)
	case flightDrop:
		f.recycle()
		nic.net.drop(frame)
	case flightDeliver:
		f.recycle()
		nic.deliver(frame, corrupt)
	case flightSend:
		f.recycle()
		if err := nic.Send(frame); err != nil {
			frame.Release()
		}
	case flightCharge:
		then := f.then
		f.recycle()
		then(frame)
	}
}

// recycle blanks the record and returns it to its node's free list.
func (f *flight) recycle() {
	*f = flight{node: f.node, step: f.step}
	f.node.flights.Put(f)
}

// ChargeFrame is Charge for the per-packet path: fn(frame) runs once the CPU
// has served d, with the frame carried in a recycled record, not a closure.
func (n *Node) ChargeFrame(d sim.Duration, frame *netbuf.Chain, fn func(*netbuf.Chain)) {
	f := n.flight(flightCharge, frame)
	f.then = fn
	n.CPU.Use(d, f.step)
}

// ChargeSend charges the node's CPU d of per-packet transmit work, then
// Sends frame, releasing it if the NIC refuses it.
func (n *NIC) ChargeSend(d sim.Duration, frame *netbuf.Chain) {
	f := n.node.flight(flightSend, frame)
	f.nic = n
	n.node.CPU.Use(d, f.step)
}
