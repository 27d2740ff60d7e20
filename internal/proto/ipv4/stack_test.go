package ipv4

import (
	"bytes"
	"math/rand"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

func stackPair(t *testing.T) (*sim.Engine, *Stack, *Stack) {
	t.Helper()
	eng, _, sa, sb := stackNet(t)
	return eng, sa, sb
}

// stackNet is stackPair with the switch.
func stackNet(t *testing.T) (*sim.Engine, *simnet.Network, *Stack, *Stack) {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 2*sim.Microsecond)
	a := simnet.NewNode(eng, "a", simnet.DefaultProfile())
	b := simnet.NewNode(eng, "b", simnet.DefaultProfile())
	if _, err := nw.Attach(a, 1, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(b, 2, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	return eng, nw, NewStack(a), NewStack(b)
}

func TestStackSmallDatagram(t *testing.T) {
	eng, sa, sb := stackPair(t)
	var got []byte
	var gotSrc, gotDst eth.Addr
	sb.Register(99, func(src, dst eth.Addr, payload *netbuf.Chain) {
		gotSrc, gotDst = src, dst
		got = payload.Flatten()
		payload.Release()
	})
	want := []byte("one packet")
	if err := sa.Send(1, 2, 99, sa.Node().TxPool.GetChain(want)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("payload = %q", got)
	}
	if gotSrc != 1 || gotDst != 2 {
		t.Fatalf("addresses = %s → %s, want 0.0.0.1 → 0.0.0.2", gotSrc, gotDst)
	}
}

// TestSendReleasesPayloadOnError: Send owns the payload on every path, so a
// datagram it cannot send — no NIC at the source address, no headroom for
// the headers — goes back to its pool, not to the caller.
func TestSendReleasesPayloadOnError(t *testing.T) {
	_, sa, _ := stackPair(t)
	pool := sa.Node().TxPool
	if err := sa.Send(9, 2, 17, pool.GetChain([]byte("no nic"))); err == nil {
		t.Error("Send from an address with no NIC succeeded")
	}
	full := pool.GetChain([]byte("no headroom"))
	if _, err := full.PushFront(netbuf.DefaultHeadroom); err != nil {
		t.Fatal(err)
	}
	if err := sa.Send(1, 2, 17, full); err == nil {
		t.Error("Send with no headroom for the headers succeeded")
	}
	pool.MustBeDrained()
}

func TestStackFragmentationRoundTrip(t *testing.T) {
	eng, sa, sb := stackPair(t)
	want := make([]byte, 20000)
	rand.New(rand.NewSource(4)).Read(want)
	var got []byte
	sb.Register(17, func(_, _ eth.Addr, payload *netbuf.Chain) {
		got = payload.Flatten()
		payload.Release()
	})
	if err := sa.Send(1, 2, 17, sa.Node().TxPool.GetChain(want)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("reassembly mismatch: %d bytes", len(got))
	}
	if sb.ReasmErrors != 0 {
		t.Fatalf("ReasmErrors = %d", sb.ReasmErrors)
	}
	// 20000 bytes at 1480/fragment = 14 fragments.
	if tx := sa.Node().NICs()[0].Stats.PacketsTx; tx != 14 {
		t.Fatalf("fragments = %d, want 14", tx)
	}
}

func TestStackInterleavedDatagramsReassembleByID(t *testing.T) {
	// Two large datagrams sent back-to-back: their fragments share the
	// wire but must reassemble separately by IP ID.
	eng, sa, sb := stackPair(t)
	var got [][]byte
	sb.Register(17, func(_, _ eth.Addr, payload *netbuf.Chain) {
		got = append(got, payload.Flatten())
		payload.Release()
	})
	a := bytes.Repeat([]byte{0xA1}, 5000)
	b := bytes.Repeat([]byte{0xB2}, 7000)
	if err := sa.Send(1, 2, 17, sa.Node().TxPool.GetChain(a)); err != nil {
		t.Fatal(err)
	}
	if err := sa.Send(1, 2, 17, sa.Node().TxPool.GetChain(b)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 2 || !bytes.Equal(got[0], a) || !bytes.Equal(got[1], b) {
		t.Fatalf("interleaved reassembly broken: %d datagrams", len(got))
	}
}

func TestStackUnknownProtoDropped(t *testing.T) {
	eng, sa, _ := stackPair(t)
	if err := sa.Send(1, 2, 200, sa.Node().TxPool.GetChain([]byte("x"))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	eng.Run()
	// Nothing to assert beyond "no crash, no leak": the datagram is
	// silently discarded at the receiver.
}

func TestStackSendFromUnknownAddressFails(t *testing.T) {
	_, sa, _ := stackPair(t)
	err := sa.Send(42, 2, 17, sa.Node().TxPool.GetChain([]byte("x")))
	if err == nil {
		t.Fatal("send from non-local address succeeded")
	}
}

// TestStackPacketAllocFree gates the per-packet path through the network
// layer: an unfragmented datagram — header buffer, Charge on transmit, the
// wire, Charge on receive, parse, deliver — costs no object: the frame hop
// below is free (see simnet's TestFrameHopAllocFree) and the stack adds no
// closure per packet in either direction. Nor does a datagram of three
// fragments: its reassembly record and the expiry it arms are recycled.
func TestStackPacketAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	for _, size := range []int{1024, 4096} {
		eng, sa, sb := stackPair(t)
		delivered := 0
		sb.Register(99, func(_, _ eth.Addr, payload *netbuf.Chain) {
			delivered += payload.Len()
			payload.Release()
		})
		body := make([]byte, size)
		packet := func() {
			payload := sa.Node().TxPool.GetChain(body)
			if err := sa.Send(1, 2, 99, payload); err != nil {
				t.Fatal(err)
			}
			eng.Run()
		}
		for i := 0; i < 4; i++ {
			packet()
		}
		if avg := testing.AllocsPerRun(200, packet); avg != 0 {
			t.Fatalf("one %d-byte datagram allocates %.0f objects end to end, want 0", size, avg)
		}
		if delivered != (4+201)*len(body) {
			t.Fatalf("delivered %d bytes, want %d", delivered, (4+201)*len(body))
		}
	}
}

// TestStackReassemblyRecordRecycled: one record serves a flow's datagrams one
// after the other, and the expiry of each partial acts on the datagram that
// armed it. After 1,000 recycles a head fragment arrives whose tail is lost
// (partial A, expiring at +50 ms); at +10 ms a whole datagram evicts it and
// completes on the same record; at +20 ms another tail is lost (partial B,
// expiring at +70 ms). A's instant must pass without touching B, and B's own
// expiry must drop it, release its buffers and return the record.
func TestStackReassemblyRecordRecycled(t *testing.T) {
	eng, sa, sb := stackPair(t)
	delivered := 0
	sb.Register(99, func(_, _ eth.Addr, payload *netbuf.Chain) {
		delivered++
		payload.Release()
	})
	body := make([]byte, 4096)
	whole := func() {
		payload := sa.Node().TxPool.GetChain(body)
		if err := sa.Send(1, 2, 99, payload); err != nil {
			t.Fatal(err)
		}
	}
	// head sends the first fragment of a datagram and loses the rest.
	head := func(id uint16) {
		payload := sa.Node().TxPool.GetChain(body[:1480])
		hdr := Header{TotalLen: HeaderLen + 1480, ID: id, MoreFrags: true, TTL: 64, Proto: 99, Src: 1, Dst: 2}
		frame, err := sa.frame(hdr, payload)
		if err != nil {
			t.Fatal(err)
		}
		sa.nics[1].ChargeSend(sa.node.Cost.PktTxNs, frame)
	}
	const recycles = 1000
	for i := 0; i < recycles; i++ {
		whole()
		eng.Run()
	}
	if delivered != recycles || len(sb.reasm) != 0 {
		t.Fatalf("%d datagrams delivered, %d partials left; want %d, 0", delivered, len(sb.reasm), recycles)
	}
	if !netbuf.DebugEnabled() && len(sb.free) != 1 {
		t.Fatalf("%d reassembly records after %d datagrams on one flow, want 1", len(sb.free), recycles)
	}

	t0 := eng.Now()
	at := func(d sim.Duration) {
		t.Helper()
		eng.RunUntil(t0.Add(d))
	}
	key := flowKey{src: 1, dst: 2, proto: 99}
	head(60001)
	at(10 * sim.Millisecond)
	a := sb.reasm[key]
	if a == nil || a.id != 60001 {
		t.Fatalf("partial A not held: %+v", a)
	}
	whole()
	at(20 * sim.Millisecond)
	if delivered != recycles+1 || sb.ReasmDropped != 1 || len(sb.reasm) != 0 {
		t.Fatalf("after the evicting datagram: %d delivered, %d dropped, %d partials; want %d, 1, 0",
			delivered, sb.ReasmDropped, len(sb.reasm), recycles+1)
	}
	head(60002)
	at(60 * sim.Millisecond) // A's expiry instant (+50 ms) has passed
	b := sb.reasm[key]
	if b == nil || b.id != 60002 || sb.ReasmDropped != 1 {
		t.Fatalf("partial B disturbed at A's expiry: %+v, %d dropped", b, sb.ReasmDropped)
	}
	if !netbuf.DebugEnabled() && a != b {
		t.Fatalf("partial B on record %p, want A's recycled record %p", b, a)
	}
	at(80 * sim.Millisecond) // B's own (+70 ms)
	if sb.ReasmDropped != 2 || len(sb.reasm) != 0 || delivered != recycles+1 {
		t.Fatalf("after B's expiry: %d dropped, %d partials, %d delivered; want 2, 0, %d",
			sb.ReasmDropped, len(sb.reasm), delivered, recycles+1)
	}
	if !netbuf.DebugEnabled() && len(sb.free) != 1 {
		t.Fatalf("%d records on the free list after the expiry, want 1", len(sb.free))
	}
	for _, st := range []*Stack{sa, sb} {
		for _, p := range st.Node().Pools() {
			if n := p.Outstanding(); n != 0 {
				t.Fatalf("pool %s: %d buffers still held after the partial expired", p.Name(), n)
			}
		}
	}
	if netbuf.DebugEnabled() {
		// Abandoned, not recycled, and loud if anything still reaches it.
		defer func() {
			if p := recover(); p == nil {
				t.Error("an expiry on a retired record did not panic in debug mode")
			}
		}()
		b.expire()
	}
}

// TestStackDatagramEventBudget pins the receive side's events: a datagram
// costs 2 however many fragments it has — the egress downlink's completion
// of its last fragment, and one upcall — since the sender's CPU time, every
// fragment's arrival at the switch, every fragment's receive CPU time and
// every fragment ahead of the last (quiet) are reserved without an event.
// A rate-0 schedule naming the sender's NIC keeps the per-frame path: n + 1
// for n fragments, one delivery each and the upcall, plus a departure per
// frame at the named site. The upcall fires when the last fragment's receive
// CPU time ends, at the instants pinned from the version that spent an
// event on each.
func TestStackDatagramEventBudget(t *testing.T) {
	for _, c := range []struct {
		size, frags int
		upcall      sim.Time
	}{{1000, 1, 28396}, {4000, 3, 57132}, {20000, 14, 190060}} {
		for _, named := range []bool{false, true} {
			eng, nw, sa, sb := stackNet(t)
			if named {
				in := fault.New(eng, 1)
				in.Add(fault.Schedule{Class: fault.FrameDrop, Target: "a.tx", Rate: 0})
				nw.SetFaults(in)
				in.Arm()
			}
			var at sim.Time
			sb.Register(99, func(_, _ eth.Addr, payload *netbuf.Chain) {
				at = eng.Now()
				payload.Release()
			})
			if err := sa.Send(1, 2, 99, sa.Node().TxPool.GetChain(make([]byte, c.size))); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			want := uint64(2)
			if named {
				want = uint64(c.frags+1) + uint64(c.frags)
			}
			if eng.Processed() != want || at != c.upcall {
				t.Errorf("%d-byte datagram, named %v: upcall at %d after %d events, want %d after %d",
					c.size, named, at, eng.Processed(), c.upcall, want)
			}
		}
	}
}

// fragment builds on pool the wire frame of one fragment of datagram id on
// the flow 1 → 2: the part of a size-byte payload from off, at most one
// fragment's worth.
func fragment(t *testing.T, pool *netbuf.Pool, id uint16, size, off int) *netbuf.Chain {
	t.Helper()
	n := min(size-off, 1480)
	frame := pool.GetChain(bytes.Repeat([]byte{byte(id)}, n))
	hdr := Header{TotalLen: uint16(HeaderLen + n), ID: id, MoreFrags: off+n < size,
		FragOffset: uint16(off), TTL: 64, Proto: 99, Src: 1, Dst: 2}
	if err := hdr.Push(frame); err != nil {
		t.Fatal(err)
	}
	if err := (eth.Header{Dst: 2, Src: 1, Type: eth.TypeIPv4}).Push(frame); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestStackStaleAndDuplicateFragmentsDroppedAlone: a late fragment of a
// datagram the flow has moved past, or a second copy of a fragment already
// held, is dropped on its own and counted, and the datagram in progress
// still completes. Each order below carries fragments of two 4,000-byte
// datagrams (three fragments each), D1 and D2.
func TestStackStaleAndDuplicateFragmentsDroppedAlone(t *testing.T) {
	type frag struct{ d, f int }
	for _, c := range []struct {
		name  string
		order []frag
		want  uint16 // the datagram that completes
		errs  uint64
	}{
		{"stale", []frag{{1, 1}, {1, 2}, {2, 1}, {1, 3}, {2, 2}, {2, 3}}, 2, 1},
		{"duplicate", []frag{{1, 1}, {1, 1}, {1, 2}, {1, 3}}, 1, 1},
	} {
		eng, _, sb := stackPair(t)
		var got [][]byte
		sb.Register(99, func(_, _ eth.Addr, payload *netbuf.Chain) {
			got = append(got, payload.Flatten())
			payload.Release()
		})
		const size = 4000
		for _, f := range c.order {
			sb.rx(fragment(t, sb.Node().TxPool, uint16(f.d), size, (f.f-1)*1480), eng.Now(), false)
		}
		eng.Run()
		if len(got) != 1 || !bytes.Equal(got[0], bytes.Repeat([]byte{byte(c.want)}, size)) {
			t.Errorf("%s: %d datagrams delivered, want D%d alone", c.name, len(got), c.want)
		}
		if sb.ReasmErrors != c.errs || len(sb.reasm) != 0 {
			t.Errorf("%s: %d fragment errors, %d partials left; want %d, 0", c.name, sb.ReasmErrors, len(sb.reasm), c.errs)
		}
	}
}
