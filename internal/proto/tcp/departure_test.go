package tcp

import (
	"bytes"
	"reflect"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/netbuf"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// exchange is what one run of departureExchange observed.
type exchange struct {
	at       []sim.Time // every UDP datagram and TCP delivery, in order
	end      sim.Time
	events   uint64
	frames   uint64
	counters [2]Transport // a's and b's TCP counters
}

// departureExchange runs one fragmented UDP datagram each way and a 256 KB
// TCP stream a→b on two hosts. With faultable set, a rate-0 frame-drop
// schedule names both NICs: it never fires and never draws, but every
// frame then departs, and reaches the switch egress, in an event of its own.
func departureExchange(t *testing.T, faultable bool) exchange {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	a, b := hostsOn(t, eng, nw, simnet.Gbps)
	if faultable {
		in := fault.New(eng, 1)
		in.Add(fault.Schedule{Class: fault.FrameDrop, Target: "*", Rate: 0})
		nw.SetFaults(in)
		in.Arm()
	}
	var x exchange
	for _, h := range []*host{a, b} {
		u := udp.NewTransport(h.ip)
		if err := u.Bind(7, func(d udp.Datagram) {
			x.at = append(x.at, eng.Now())
			d.Payload.Release()
		}); err != nil {
			t.Fatal(err)
		}
		peer := a.addr + b.addr - h.addr
		if err := u.SendChain(h.addr, 7, peer, 7, netbuf.ChainFromBytes(make([]byte, 9000), netbuf.DefaultBufSize)); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := b.tcp.Listen(80, func(c *Conn) {
		c.SetReceiver(func(data *netbuf.Chain) {
			x.at = append(x.at, eng.Now())
			got.Write(data.Flatten())
			data.Release()
		})
	}); err != nil {
		t.Fatal(err)
	}
	want := lossPayload()[:256*1024]
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if err := c.Send(want); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("faultable %v: stream delivered %d of %d bytes intact", faultable, got.Len(), len(want))
	}
	x.end, x.events = eng.Now(), eng.Processed()
	x.frames = a.node.NICs()[0].Stats.PacketsTx + b.node.NICs()[0].Stats.PacketsTx
	for i, h := range []*host{a, b} {
		x.counters[i] = *h.tcp
		x.counters[i].ip, x.counters[i].node, x.counters[i].listeners, x.counters[i].conns = nil, nil, nil, nil
	}
	return x
}

// TestFaultFreeScheduleKeepsDepartureInstants: a frame between NICs no
// frame-fault schedule names departs without an event of its own, its
// uplink booked when its CPU time is, and is booked onto the egress
// downlink at launch; a named NIC departs each frame in an event at the
// same instant, and a named receive site takes an event at each arrival.
// The same exchange on both must deliver at the same instants, end at the
// same clock with the same TCP counters, and differ only by two events per
// frame and one per non-final fragment, which crosses the switch quiet only
// between NICs no schedule names.
func TestFaultFreeScheduleKeepsDepartureInstants(t *testing.T) {
	eager, evented := departureExchange(t, false), departureExchange(t, true)
	if len(eager.at) != len(evented.at) || len(eager.at) < 3 {
		t.Fatalf("%d deliveries eager, %d evented; want the same, at least 3", len(eager.at), len(evented.at))
	}
	for i := range eager.at {
		if eager.at[i] != evented.at[i] {
			t.Fatalf("delivery %d at %v eager, %v evented", i, eager.at[i], evented.at[i])
		}
	}
	if eager.end != evented.end || !reflect.DeepEqual(eager.counters, evented.counters) {
		t.Fatalf("eager run ended at %v with %+v, evented at %v with %+v",
			eager.end, eager.counters, evented.end, evented.counters)
	}
	t.Logf("%d deliveries, %d frames, %d events eager, %d evented", len(eager.at), eager.frames, eager.events, evented.events)
	// Each 9,000-byte datagram is seven fragments, six of them quiet.
	const quiet = 2 * 6
	if eager.frames != evented.frames || evented.events-eager.events != 2*evented.frames+quiet {
		t.Fatalf("%d and %d frames; %d events eager, %d evented, want two more per frame and %d more",
			eager.frames, evented.frames, eager.events, evented.events, quiet)
	}
}
