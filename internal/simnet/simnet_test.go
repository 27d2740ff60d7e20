package simnet

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/sim"
)

func testFabric(t *testing.T) (*sim.Engine, *Network, *NIC, *NIC) {
	t.Helper()
	eng := sim.NewEngine()
	nw := NewNetwork(eng, 5*sim.Microsecond)
	a := NewNode(eng, "a", DefaultProfile())
	b := NewNode(eng, "b", DefaultProfile())
	na, err := nw.Attach(a, 1, Gbps)
	if err != nil {
		t.Fatalf("attach a: %v", err)
	}
	nb, err := nw.Attach(b, 2, Gbps)
	if err != nil {
		t.Fatalf("attach b: %v", err)
	}
	return eng, nw, na, nb
}

func frameTo(t *testing.T, pool *netbuf.Pool, dst, src eth.Addr, payload []byte) *netbuf.Chain {
	t.Helper()
	c := pool.GetChain(payload)
	if err := (eth.Header{Dst: dst, Src: src, Type: eth.TypeIPv4}).Push(c); err != nil {
		t.Fatalf("push eth: %v", err)
	}
	return c
}

func TestFrameDelivery(t *testing.T) {
	eng, _, na, nb := testFabric(t)
	var got []byte
	nb.SetRxHandler(func(f *netbuf.Chain, _ sim.Time, _ bool) {
		hdr, err := eth.Parse(f)
		if err != nil {
			t.Errorf("parse: %v", err)
		}
		if hdr.Src != 1 || hdr.Dst != 2 {
			t.Errorf("hdr = %+v", hdr)
		}
		got = f.Flatten()
		f.Release()
	})
	payload := []byte("over the fabric")
	if err := na.Send(frameTo(t, na.node.TxPool, 2, 1, payload)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %q, want %q", got, payload)
	}
	if na.Stats.PacketsTx != 1 || nb.Stats.PacketsRx != 1 {
		t.Fatalf("stats tx=%d rx=%d", na.Stats.PacketsTx, nb.Stats.PacketsRx)
	}
}

func TestDeliveryLatencyIncludesSerialization(t *testing.T) {
	eng, _, na, nb := testFabric(t)
	var at sim.Time
	nb.SetRxHandler(func(f *netbuf.Chain, _ sim.Time, _ bool) { at = eng.Now(); f.Release() })
	payload := make([]byte, 1488) // 1488+12 hdr = 1500 on wire + 24 overhead
	if err := na.Send(frameTo(t, na.node.TxPool, 2, 1, payload)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	eng.Run()
	// Wire bytes = 1500+24 = 1524. Serialization at 1 Gbps = 12.192 us,
	// twice (uplink + downlink) + 2x5us latency = 34.384 us.
	want := sim.Time(2*12192 + 2*5000)
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestOrderingPreservedPerFlow(t *testing.T) {
	eng, _, na, nb := testFabric(t)
	var order []byte
	nb.SetRxHandler(func(f *netbuf.Chain, _ sim.Time, _ bool) {
		if _, err := eth.Parse(f); err != nil {
			t.Errorf("parse: %v", err)
		}
		order = append(order, f.Flatten()[0])
		f.Release()
	})
	for i := byte(0); i < 10; i++ {
		if err := na.Send(frameTo(t, na.node.TxPool, 2, 1, []byte{i})); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	eng.Run()
	for i := byte(0); i < 10; i++ {
		if order[i] != i {
			t.Fatalf("frames reordered: %v", order)
		}
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	eng, nw, na, _ := testFabric(t)
	if err := na.Send(frameTo(t, na.node.TxPool, 99, 1, []byte("void"))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	eng.Run()
	if nw.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", nw.Dropped())
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	_, _, na, _ := testFabric(t)
	big := netbuf.NewPool("big", netbuf.DefaultHeadroom, 3000, 0).GetChain(make([]byte, 3000))
	// Build a single oversize buffer chain manually (bypasses MTU segmenting).
	if err := (eth.Header{Dst: 2, Src: 1}).Push(big); err == nil {
		if err := na.Send(big); err == nil {
			t.Fatal("oversize frame accepted")
		}
	}
}

func TestDuplicateAddressRejected(t *testing.T) {
	eng := sim.NewEngine()
	nw := NewNetwork(eng, 0)
	n := NewNode(eng, "n", DefaultProfile())
	if _, err := nw.Attach(n, 7, Gbps); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if _, err := nw.Attach(n, 7, Gbps); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestMultiNICNode(t *testing.T) {
	eng := sim.NewEngine()
	nw := NewNetwork(eng, sim.Microsecond)
	server := NewNode(eng, "server", DefaultProfile())
	client := NewNode(eng, "client", DefaultProfile())
	s1, _ := nw.Attach(server, 10, Gbps)
	s2, _ := nw.Attach(server, 11, Gbps)
	c1, _ := nw.Attach(client, 20, Gbps)
	rx := map[eth.Addr]int{}
	h := func(nicAddr eth.Addr) RxHandler {
		return func(f *netbuf.Chain, _ sim.Time, _ bool) { rx[nicAddr]++; f.Release() }
	}
	s1.SetRxHandler(h(10))
	s2.SetRxHandler(h(11))
	if err := c1.Send(frameTo(t, c1.node.TxPool, 10, 20, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(frameTo(t, c1.node.TxPool, 11, 20, []byte("y"))); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if rx[10] != 1 || rx[11] != 1 {
		t.Fatalf("rx = %v, want one frame per NIC", rx)
	}
	if len(server.NICs()) != 2 {
		t.Fatalf("server NICs = %d, want 2", len(server.NICs()))
	}
	if server.NetTotals().PacketsRx != 2 {
		t.Fatalf("NetTotals.PacketsRx = %d, want 2", server.NetTotals().PacketsRx)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	if d := Gbps.serialization(125); d != 1000 {
		t.Fatalf("1Gbps x 125B = %v, want 1us", d)
	}
	if d := (100 * Mbps).serialization(125); d != 10000 {
		t.Fatalf("100Mbps x 125B = %v, want 10us", d)
	}
}

func TestNodeChargeCopyAccounting(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, "n", DefaultProfile())
	done := false
	n.ChargeCopy(4096, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("ChargeCopy callback not run")
	}
	if n.Copies.PhysicalOps != 1 || n.Copies.PhysicalBytes != 4096 {
		t.Fatalf("copies = %+v", n.Copies)
	}
	if n.CPU.Busy() != n.Cost.CopyCost(4096) {
		t.Fatalf("CPU busy = %v, want %v", n.CPU.Busy(), n.Cost.CopyCost(4096))
	}
}

// TestKillDropsCPUBacklog: the work a killed incarnation queued on its
// node's CPU dies with it, and the CPU is not counted busy for the service it
// never gave, so the next incarnation's first charge completes at the kill,
// not a second later behind dead work.
func TestKillDropsCPUBacklog(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, "n", DefaultProfile())
	n.Charge(sim.Second, func() { t.Error("a charge of the killed incarnation completed") })
	at := sim.Time(-1)
	eng.Schedule(sim.Millisecond, func() {
		n.Kill()
		n.Charge(0, func() { at = eng.Now() })
	})
	eng.Run()
	if want := sim.Time(0).Add(sim.Millisecond); at != want {
		t.Fatalf("the first charge after the kill completed at %v, want %v", at, want)
	}
	if got := n.CPU.Busy(); got != sim.Millisecond {
		t.Fatalf("CPU busy = %v, want %v: only the service before the kill", got, sim.Millisecond)
	}
}

// TestKillKeepsChargedFramesDeparting: a frame charged to a NIC before the
// kill still departs when its CPU time would have ended, and lands at the
// instant it would have without the kill.
func TestKillKeepsChargedFramesDeparting(t *testing.T) {
	arrival := func(kill bool) sim.Time {
		eng, _, na, nb := testFabric(t)
		at := sim.Time(-1)
		nb.SetRxHandler(func(f *netbuf.Chain, now sim.Time, _ bool) {
			at = now
			f.Release()
		})
		na.ChargeSend(10*sim.Microsecond, frameTo(t, na.node.TxPool, 2, 1, make([]byte, 600)))
		if kill {
			eng.Schedule(sim.Microsecond, na.node.Kill)
		}
		eng.Run()
		return at
	}
	if got, want := arrival(true), arrival(false); got != want || want < 0 {
		t.Fatalf("with the sender killed the frame landed at %v, without at %v", got, want)
	}
}

func TestEthHeaderRoundTrip(t *testing.T) {
	c := netbuf.NewPool("eth", netbuf.DefaultHeadroom, 100, 0).GetChain([]byte("data"))
	defer c.Release()
	in := eth.Header{Dst: 0xdeadbeef, Src: 0x01020304, Type: eth.TypeIPv4, Pad: 7}
	if err := in.Push(c); err != nil {
		t.Fatalf("Push: %v", err)
	}
	peeked, err := eth.Peek(c)
	if err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if peeked != in {
		t.Fatalf("Peek = %+v, want %+v", peeked, in)
	}
	out, err := eth.Parse(c)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if out != in {
		t.Fatalf("Parse = %+v, want %+v", out, in)
	}
	if string(c.Flatten()) != "data" {
		t.Fatalf("payload corrupted: %q", c.Flatten())
	}
	if got := eth.Addr(0x0a000001).String(); got != "10.0.0.1" {
		t.Fatalf("Addr.String = %q", got)
	}
}

// rxPost is a receive handler in the network layer's shape: it reserves the
// frame's receive CPU time from delivery and posts fn(frame) for when it ends.
func rxPost(n *Node, fn sim.Handler) RxHandler {
	return func(f *netbuf.Chain, at sim.Time, _ bool) {
		n.Eng.PostAt(n.CPU.UseFrom(at, n.Cost.PktRxNs), fn, f, nil, 0)
	}
}

// TestFrameHopAllocFree is the allocation gate for the per-frame path: one
// MTU frame from a transmit pool through ChargeSend, the uplink serializer,
// the switch, the downlink serializer and a receive handler's post costs no
// object in steady state: the frame rides each hop as the arguments of a
// Post, and the events, the fault-site names and the buffers all recycle.
func TestFrameHopAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, _, na, nb := testFabric(t)
	a, b := na.node, nb.node
	delivered := 0
	nb.SetRxHandler(rxPost(b, func(f, _ any, _ int64) { delivered++; f.(*netbuf.Chain).Release() }))
	payload := make([]byte, netbuf.DefaultBufSize-eth.HeaderLen)
	hop := func() {
		frame := a.TxPool.GetChain(payload)
		if err := (eth.Header{Dst: 2, Src: 1, Type: eth.TypeIPv4}).Push(frame); err != nil {
			t.Fatal(err)
		}
		na.ChargeSend(a.Cost.PktTxNs, frame)
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		hop() // prime events, records, chains and both pools' free lists
	}
	if avg := testing.AllocsPerRun(200, hop); avg != 0 {
		t.Fatalf("one frame hop allocates %.0f objects, want 0", avg)
	}
	if delivered != 4+201 || nb.Stats.PacketsRx != uint64(delivered) {
		t.Fatalf("delivered %d frames (rx counter %d), want %d", delivered, nb.Stats.PacketsRx, 4+201)
	}
	a.TxPool.MustBeDrained()
}

// TestFrameHopTwoEvents pins the event count of one frame hop: the egress
// downlink's completion, which delivers the frame, and the receiver's post
// when its CPU time ends. The sender's CPU time, the uplink and the frame's
// arrival at the switch decide nothing, so they fire no event of their own.
// A NIC that a frame-fault schedule names departs in a third event, at the
// same instant, so the hop ends when it did.
func TestFrameHopTwoEvents(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults bool
		events uint64
	}{{"eager", false, 2}, {"faultable", true, 3}} {
		eng, nw, na, nb := testFabric(t)
		if c.faults {
			in := fault.New(eng, 7)
			in.Add(fault.Schedule{Class: fault.FrameDrop, Target: "a.tx", Rate: 0})
			nw.SetFaults(in)
			in.Arm()
		}
		a, b := na.node, nb.node
		var done sim.Time
		nb.SetRxHandler(rxPost(b, func(f, _ any, _ int64) { done = eng.Now(); f.(*netbuf.Chain).Release() }))
		na.ChargeSend(a.Cost.PktTxNs, frameTo(t, na.node.TxPool, 2, 1, make([]byte, 1488)))
		eng.Run()
		// 1524 wire bytes: 12.192 µs per serializer.
		const ser, lat = 12192, 5000
		want := sim.Time(a.Cost.PktTxNs + 2*ser + 2*lat + b.Cost.PktRxNs)
		if done != want || eng.Processed() != c.events {
			t.Fatalf("%s: hop ended at %v in %d events, want %v in %d", c.name, done, eng.Processed(), want, c.events)
		}
	}
}

// TestDeliveredBuffersStayOnSenderPool pins buffer ownership across a hop:
// while the receiver holds a delivered frame, its buffers count against the
// sender's pools, not the receiver's, and the receiver's Release returns
// them there.
func TestDeliveredBuffersStayOnSenderPool(t *testing.T) {
	eng, _, na, nb := testFabric(t)
	a, b := na.node, nb.node
	var held *netbuf.Chain
	nb.SetRxHandler(func(f *netbuf.Chain, _ sim.Time, _ bool) { held = f })
	payload := make([]byte, 600)
	frame := a.TxPool.GetChain(payload)
	frame.AppendChain(a.BlkPool.GetChain(payload))
	if err := (eth.Header{Dst: 2, Src: 1, Type: eth.TypeIPv4}).Push(frame); err != nil {
		t.Fatal(err)
	}
	if err := na.Send(frame); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if held == nil {
		t.Fatal("frame not delivered")
	}
	for _, c := range []struct {
		p    *netbuf.Pool
		want int
	}{{a.TxPool, 1}, {a.BlkPool, 1}, {b.TxPool, 0}, {b.BlkPool, 0}} {
		if got := c.p.Outstanding(); got != c.want {
			t.Errorf("while the receiver holds the frame: pool %s has %d outstanding, want %d",
				c.p.Name(), got, c.want)
		}
	}
	held.Release()
	for _, p := range slices.Concat(a.Pools(), b.Pools()) {
		p.MustBeDrained()
	}
}

// TestFaultedFrameTimingRepeatsEachRound pins the fault paths' event timing:
// with every frame toward b delayed 1 µs and duplicated at the downlink, and
// every frame corrupted and duplicated on a's uplink, the survivors land at
// the same instants round after round, and a duplicate never inherits the
// original's delay.
func TestFaultedFrameTimingRepeatsEachRound(t *testing.T) {
	eng, nw, na, nb := testFabric(t)
	in := fault.New(eng, 7)
	in.Add(fault.Schedule{Class: fault.FrameDelay, Target: "b.rx", Rate: 1, Delay: sim.Microsecond})
	in.Add(fault.Schedule{Class: fault.FrameDup, Target: "b.rx", Rate: 1})
	in.Add(fault.Schedule{Class: fault.FrameCorrupt, Target: "a.tx", Rate: 1})
	in.Add(fault.Schedule{Class: fault.FrameDup, Target: "a.tx", Rate: 1})
	nw.SetFaults(in)
	in.Arm()
	var at []sim.Duration
	var start sim.Time
	nb.SetRxHandler(func(f *netbuf.Chain, _ sim.Time, _ bool) { at = append(at, eng.Now().Sub(start)); f.Release() })
	payload := make([]byte, 1488) // 1524 wire bytes: 12.192 µs per serializer
	const ser, lat = 12192, 5000
	// The original is corrupt (discarded at delivery); its uplink duplicate
	// is clean. Both are duplicated again at the downlink, so four copies
	// queue on the downlink serializer: corrupt, its dup, clean, its dup.
	// Downlink originals wait out the 1 µs delay, duplicates do not.
	want := []sim.Duration{
		4*ser + 2*lat + 1000, // clean copy, delayed
		5*ser + 2*lat,        // its downlink duplicate
	}
	for round := 0; round < 3; round++ {
		at, start = at[:0], eng.Now()
		if err := na.Send(frameTo(t, na.node.TxPool, 2, 1, payload)); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if len(at) != len(want) || at[0] != want[0] || at[1] != want[1] {
			t.Fatalf("round %d: deliveries at %v, want %v", round, at, want)
		}
	}
	if nb.Stats.FaultCorruptRx != 6 || nw.FaultDuped() != 6 || na.Stats.FaultDupTx != 3 {
		t.Fatalf("corrupt rx %d, downlink dups %d, uplink dups %d; want 6, 6, 3",
			nb.Stats.FaultCorruptRx, nw.FaultDuped(), na.Stats.FaultDupTx)
	}
}

// TestFaultFreePortQueueMatchesArrivalEvents: frames booked onto a downlink
// at launch leave it in arrival order, then launch order, even when a later
// launch arrives first — over a shorter link, or from an idle uplink while
// another is backlogged — and each is delivered in the request context of
// its launch, and sorted among same-instant events as if posted at its
// arrival. The same sends toward a port whose receive site a rate-0
// schedule names, which takes an event at each arrival, deliver in the same
// order at the same instants. Only the queue's head holds an event.
func TestFaultFreePortQueueMatchesArrivalEvents(t *testing.T) {
	type delivery struct {
		id  byte
		at  sim.Time
		ctx any
	}
	run := func(evented bool) ([]delivery, int) {
		eng := sim.NewEngine()
		nw := NewNetwork(eng, 5*sim.Microsecond)
		b := NewNode(eng, "b", DefaultProfile())
		nb, err := nw.Attach(b, 2, Gbps)
		if err != nil {
			t.Fatal(err)
		}
		var senders []*NIC
		for i, lat := range []sim.Duration{50 * sim.Microsecond, 5 * sim.Microsecond, 5 * sim.Microsecond} {
			n := NewNode(eng, fmt.Sprintf("s%d", i), DefaultProfile())
			nic, err := nw.AttachAt(n, eth.Addr(10+i), Gbps, lat)
			if err != nil {
				t.Fatal(err)
			}
			senders = append(senders, nic)
		}
		if evented {
			in := fault.New(eng, 1)
			in.Add(fault.Schedule{Class: fault.FrameDrop, Target: "b.rx", Rate: 0})
			nw.SetFaults(in)
			in.Arm()
		}
		var got []delivery
		nb.SetRxHandler(func(f *netbuf.Chain, _ sim.Time, _ bool) {
			got = append(got, delivery{f.Flatten()[eth.HeaderLen], eng.Now(), eng.Context()})
			f.Release()
		})
		// Frame 1 crosses a 50 µs link; 2 and 3 share an idle 5 µs
		// uplink, so 3 waits behind 2; 4 arrives with 2 from another.
		for id, from := range []int{0, 1, 1, 2} {
			eng.SetContext(id + 1)
			nic := senders[from]
			if err := nic.Send(frameTo(t, nic.node.TxPool, 2, nic.Addr, bytes.Repeat([]byte{byte(id + 1)}, 1488))); err != nil {
				t.Fatal(err)
			}
		}
		eng.SetContext(nil)
		pending := eng.Pending()
		// Ticks due with the deliveries: one posted before its frame
		// arrives fires ahead of the delivery, one posted after (at 70 µs,
		// frame 1 arriving at 67.192 µs) behind it.
		tick := func(_, _ any, _ int64) { got = append(got, delivery{0, eng.Now(), eng.Context()}) }
		eng.Schedule(sim.Microsecond, func() {
			for _, at := range []sim.Time{34384, 46576, 58768, 79384} {
				eng.PostAt(at, tick, nil, nil, 0)
			}
		})
		eng.Schedule(70*sim.Microsecond, func() { eng.PostAt(79384, tick, nil, nil, 0) })
		eng.Run()
		return got, pending
	}
	// 1524 wire bytes: 12.192 µs per serializer. Arrivals at b's egress:
	// 2 and 4 at 22.192 µs, 3 at 34.384 µs, 1 at 67.192 µs.
	const ser = 12192
	want := []delivery{
		{0, 22192 + ser, nil}, {2, 22192 + ser, 2},
		{0, 22192 + 2*ser, nil}, {4, 22192 + 2*ser, 4},
		{0, 22192 + 3*ser, nil}, {3, 22192 + 3*ser, 3},
		{0, 67192 + ser, nil}, {1, 67192 + ser, 1}, {0, 67192 + ser, nil},
	}
	eager, heads := run(false)
	evented, arrivals := run(true)
	if !reflect.DeepEqual(eager, want) || !reflect.DeepEqual(evented, want) {
		t.Errorf("delivered %v booked at launch, %v booked at arrival; want %v", eager, evented, want)
	}
	if heads != 1 || arrivals != 4 {
		t.Errorf("%d events pending for 4 booked frames, %d for 4 in flight to a named port; want 1 and 4", heads, arrivals)
	}
}

// TestQuietTrainsDrain: when Run returns, no port holds a frame and none is
// left quiet — after trains from two senders into both NICs of one node,
// and after a train whose last frame fails to launch (oversize), whose
// other frames must then cross loud, with an event each: no frame behind
// them hands them over.
func TestQuietTrainsDrain(t *testing.T) {
	eng := sim.NewEngine()
	nw := NewNetwork(eng, 5*sim.Microsecond)
	b := NewNode(eng, "b", DefaultProfile())
	var senders []*NIC
	for i, addr := range []eth.Addr{1, 2, 10, 11} {
		n := b
		if i < 2 {
			n = NewNode(eng, fmt.Sprintf("a%d", i), DefaultProfile())
		}
		nic, err := nw.Attach(n, addr, Gbps)
		if err != nil {
			t.Fatal(err)
		}
		senders = append(senders, nic)
	}
	received := 0
	for _, nic := range b.NICs() {
		nic.SetRxHandler(rxPost(b, func(f, _ any, _ int64) { received++; f.(*netbuf.Chain).Release() }))
	}
	launched := 0
	drained := func(phase string) {
		t.Helper()
		eng.Run()
		for _, nic := range b.NICs() {
			if p := nic.port; len(p.q) != p.h || p.loud != 0 {
				t.Errorf("%s: port %s holds %d frames after the run", phase, nic.Addr, len(p.q)-p.h)
			}
		}
		if b.quiet != 0 || received != launched || b.NetTotals().PacketsRx != uint64(launched) {
			t.Errorf("%s: %d frames quiet, %d received (%d counted) of %d launched after the run",
				phase, b.quiet, received, b.NetTotals().PacketsRx, launched)
		}
	}
	train := func(from *NIC, to eth.Addr, size int) []*netbuf.Chain {
		frames := make([]*netbuf.Chain, size)
		for i := range frames {
			frames[i] = frameTo(t, from.node.TxPool, to, from.Addr, make([]byte, 1400))
		}
		return frames
	}
	for round, size := range []int{5, 3, 2, 4} {
		for from, nic := range senders[:2] {
			nic.ChargeSendTrain(nic.node.Cost.PktTxNs, train(nic, eth.Addr(10+(round+from)%2), size))
			launched += size
		}
	}
	// One event per port: the four trains bound for each hold one between
	// them, behind the frames that cross quiet.
	if n := eng.Pending(); n != 2 {
		t.Errorf("%d events pending after the launches, want 2", n)
	}
	drained("trains")
	broken := train(senders[0], 10, 3)
	broken[2].AppendChain(netbuf.NewPool("oversize", netbuf.DefaultHeadroom, 256, 0).GetChain(make([]byte, 200)))
	senders[0].ChargeSendTrain(senders[0].node.Cost.PktTxNs, broken)
	launched += 2
	drained("a train whose last frame stays home")
}
