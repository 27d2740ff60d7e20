package simnet

import (
	"bytes"
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

func frameTo(t *testing.T, dst, src eth.Addr, payload []byte) *netbuf.Chain {
	t.Helper()
	c := netbuf.ChainFromBytes(payload, netbuf.DefaultBufSize)
	if err := (eth.Header{Dst: dst, Src: src, Type: eth.TypeIPv4}).Push(c); err != nil {
		t.Fatalf("push eth: %v", err)
	}
	return c
}

func TestFrameDelivery(t *testing.T) {
	eng, _, na, nb := testFabric(t)
	var got []byte
	nb.SetRxHandler(func(f *netbuf.Chain) {
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
	if err := na.Send(frameTo(t, 2, 1, payload)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
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
	nb.SetRxHandler(func(f *netbuf.Chain) { at = eng.Now(); f.Release() })
	payload := make([]byte, 1488) // 1488+12 hdr = 1500 on wire + 24 overhead
	if err := na.Send(frameTo(t, 2, 1, payload)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
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
	nb.SetRxHandler(func(f *netbuf.Chain) {
		if _, err := eth.Parse(f); err != nil {
			t.Errorf("parse: %v", err)
		}
		order = append(order, f.Flatten()[0])
		f.Release()
	})
	for i := byte(0); i < 10; i++ {
		if err := na.Send(frameTo(t, 2, 1, []byte{i})); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := byte(0); i < 10; i++ {
		if order[i] != i {
			t.Fatalf("frames reordered: %v", order)
		}
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	eng, nw, na, _ := testFabric(t)
	if err := na.Send(frameTo(t, 99, 1, []byte("void"))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if nw.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", nw.Dropped())
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	_, _, na, _ := testFabric(t)
	big := netbuf.ChainFromBytes(make([]byte, 3000), 3000)
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
		return func(f *netbuf.Chain) { rx[nicAddr]++; f.Release() }
	}
	s1.SetRxHandler(h(10))
	s2.SetRxHandler(h(11))
	if err := c1.Send(frameTo(t, 10, 20, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(frameTo(t, 11, 20, []byte("y"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
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
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
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

func TestEthHeaderRoundTrip(t *testing.T) {
	c := netbuf.ChainFromBytes([]byte("data"), 100)
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

// TestFrameHopAllocFree is the allocation gate for the per-frame path: one
// MTU frame from a transmit pool through ChargeSend, the uplink serializer,
// the switch, the downlink serializer and the receive handler's
// ChargeFrame costs no object in steady state: the frame rides each hop as
// the arguments of a Post, and the events, the fault-site names and the
// buffers all recycle.
func TestFrameHopAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, _, na, nb := testFabric(t)
	a, b := na.node, nb.node
	delivered := 0
	sink := func(f *netbuf.Chain) { delivered++; f.Release() }
	nb.SetRxHandler(func(f *netbuf.Chain) { b.ChargeFrame(b.Cost.PktRxNs, f, sink) })
	payload := make([]byte, netbuf.DefaultBufSize-eth.HeaderLen)
	hop := func() {
		frame := a.TxPool.GetChain(payload)
		if err := (eth.Header{Dst: 2, Src: 1, Type: eth.TypeIPv4}).Push(frame); err != nil {
			t.Fatal(err)
		}
		na.ChargeSend(a.Cost.PktTxNs, frame)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
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

// TestFrameHopFourEvents pins the event count of one frame hop: sender CPU,
// arrival at the switch egress, delivery, receiver CPU. The serializers'
// completions decide nothing, so they fire no event of their own.
func TestFrameHopFourEvents(t *testing.T) {
	eng, _, na, nb := testFabric(t)
	b := nb.node
	delivered := false
	nb.SetRxHandler(func(f *netbuf.Chain) {
		b.ChargeFrame(b.Cost.PktRxNs, f, func(f *netbuf.Chain) { delivered = true; f.Release() })
	})
	na.ChargeSend(na.node.Cost.PktTxNs, frameTo(t, 2, 1, make([]byte, 1488)))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered || eng.Processed() != 4 {
		t.Fatalf("hop delivered %v in %d events, want true in 4", delivered, eng.Processed())
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
	nb.SetRxHandler(func(f *netbuf.Chain) { held = f })
	payload := make([]byte, 600)
	frame := a.TxPool.GetChain(payload)
	frame.AppendChain(a.BlkPool.GetChain(payload))
	if err := (eth.Header{Dst: 2, Src: 1, Type: eth.TypeIPv4}).Push(frame); err != nil {
		t.Fatal(err)
	}
	if err := na.Send(frame); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
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
	for _, p := range []*netbuf.Pool{a.TxPool, a.BlkPool, b.TxPool, b.BlkPool} {
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
	nb.SetRxHandler(func(f *netbuf.Chain) { at = append(at, eng.Now().Sub(start)); f.Release() })
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
		if err := na.Send(frameTo(t, 2, 1, payload)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(at) != len(want) || at[0] != want[0] || at[1] != want[1] {
			t.Fatalf("round %d: deliveries at %v, want %v", round, at, want)
		}
	}
	if nb.Stats.FaultCorruptRx != 6 || nw.FaultDuped() != 6 || na.Stats.FaultDupTx != 3 {
		t.Fatalf("corrupt rx %d, downlink dups %d, uplink dups %d; want 6, 6, 3",
			nb.Stats.FaultCorruptRx, nw.FaultDuped(), na.Stats.FaultDupTx)
	}
}
