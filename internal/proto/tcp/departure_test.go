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
	at []sim.Time // every UDP datagram, in order
	// stream holds, for each instant a TCP delivery ended at, the bytes of
	// the stream delivered by then.
	stream   map[sim.Time]int
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
	x := exchange{stream: make(map[sim.Time]int)}
	for _, h := range []*host{a, b} {
		u := udp.NewTransport(h.ip)
		if err := u.Bind(7, func(d udp.Datagram) {
			x.at = append(x.at, eng.Now())
			d.Payload.Release()
		}); err != nil {
			t.Fatal(err)
		}
		peer := a.addr + b.addr - h.addr
		if err := u.SendChain(h.addr, 7, peer, 7, h.node.TxPool.GetChain(make([]byte, 9000))); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := b.tcp.Listen(80, func(c *Conn) {
		c.SetReceiver(func(data *netbuf.Chain) {
			got.Write(data.Flatten())
			x.stream[eng.Now()] = got.Len()
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
	eng.Run()
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
// The same exchange on both must deliver the datagrams at the same instants,
// end at the same clock with the same TCP counters, and differ only by two
// events per frame, one per non-final fragment and two per quiet segment,
// which cross the switch quiet only between NICs no schedule names. A quiet
// segment's bytes reach the receiver with the next segment's, at its upcall
// (see Conn.pump), so the stream must have reached the same length at
// every instant a delivery ended at eager, and evented at one more instant
// per quiet segment.
func TestFaultFreeScheduleKeepsDepartureInstants(t *testing.T) {
	eager, evented := departureExchange(t, false), departureExchange(t, true)
	if len(eager.at) != len(evented.at) || len(eager.at) != 2 {
		t.Fatalf("%d datagrams eager, %d evented; want 2", len(eager.at), len(evented.at))
	}
	for i := range eager.at {
		if eager.at[i] != evented.at[i] {
			t.Fatalf("datagram %d at %v eager, %v evented", i, eager.at[i], evented.at[i])
		}
	}
	for at, n := range eager.stream {
		if m, ok := evented.stream[at]; !ok || m != n {
			t.Fatalf("%d stream bytes by %v eager, %d evented (delivered then: %v)", n, at, m, ok)
		}
	}
	if eager.end != evented.end || !reflect.DeepEqual(eager.counters, evented.counters) {
		t.Fatalf("eager run ended at %v with %+v, evented at %v with %+v",
			eager.end, eager.counters, evented.end, evented.counters)
	}
	t.Logf("%d and %d delivery instants, %d frames, %d events eager, %d evented",
		len(eager.stream), len(evented.stream), eager.frames, eager.events, evented.events)
	// Each 9,000-byte datagram is seven fragments, six of them quiet. The
	// stream is one window, 180 segments sent as one train: the first, third
	// and every odd one are quiet; the even ones take the peer's delack to 2.
	const fragments, segments = 2 * 6, 180 / 2
	if len(evented.stream)-len(eager.stream) != segments {
		t.Fatalf("%d delivery instants eager, %d evented; want %d quiet segments", len(eager.stream), len(evented.stream), segments)
	}
	if eager.frames != evented.frames || evented.events-eager.events != 2*evented.frames+fragments+2*segments {
		t.Fatalf("%d and %d frames; %d events eager, %d evented, want two more per frame, %d and %d more",
			eager.frames, evented.frames, eager.events, evented.events, fragments, 2*segments)
	}
}
