package ipv4

import (
	"bytes"
	"math/rand"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

func stackPair(t *testing.T) (*sim.Engine, *Stack, *Stack) {
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
	return eng, NewStack(a), NewStack(b)
}

func TestStackSmallDatagram(t *testing.T) {
	eng, sa, sb := stackPair(t)
	var got []byte
	var gotHdr Header
	sb.Register(99, func(h Header, payload *netbuf.Chain) {
		gotHdr = h
		got = payload.Flatten()
		payload.Release()
	})
	want := []byte("one packet")
	if err := sa.Send(1, 2, 99, netbuf.ChainFromBytes(want, netbuf.DefaultBufSize)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload = %q", got)
	}
	if gotHdr.Src != 1 || gotHdr.Dst != 2 || gotHdr.Proto != 99 {
		t.Fatalf("header = %+v", gotHdr)
	}
}

func TestStackFragmentationRoundTrip(t *testing.T) {
	eng, sa, sb := stackPair(t)
	want := make([]byte, 20000)
	rand.New(rand.NewSource(4)).Read(want)
	var got []byte
	sb.Register(17, func(_ Header, payload *netbuf.Chain) {
		got = payload.Flatten()
		payload.Release()
	})
	if err := sa.Send(1, 2, 17, netbuf.ChainFromBytes(want, netbuf.DefaultBufSize)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
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
	sb.Register(17, func(_ Header, payload *netbuf.Chain) {
		got = append(got, payload.Flatten())
		payload.Release()
	})
	a := bytes.Repeat([]byte{0xA1}, 5000)
	b := bytes.Repeat([]byte{0xB2}, 7000)
	if err := sa.Send(1, 2, 17, netbuf.ChainFromBytes(a, netbuf.DefaultBufSize)); err != nil {
		t.Fatal(err)
	}
	if err := sa.Send(1, 2, 17, netbuf.ChainFromBytes(b, netbuf.DefaultBufSize)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], a) || !bytes.Equal(got[1], b) {
		t.Fatalf("interleaved reassembly broken: %d datagrams", len(got))
	}
}

func TestStackUnknownProtoDropped(t *testing.T) {
	eng, sa, _ := stackPair(t)
	if err := sa.Send(1, 2, 200, netbuf.ChainFromBytes([]byte("x"), 64)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert beyond "no crash, no leak": the datagram is
	// silently discarded at the receiver.
}

func TestStackSendFromUnknownAddressFails(t *testing.T) {
	_, sa, _ := stackPair(t)
	err := sa.Send(42, 2, 17, netbuf.ChainFromBytes([]byte("x"), 64))
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
		sb.Register(99, func(_ Header, payload *netbuf.Chain) {
			delivered += payload.Len()
			payload.Release()
		})
		body := make([]byte, size)
		packet := func() {
			payload := sa.Node().TxPool.GetChain(body)
			if err := sa.Send(1, 2, 99, payload); err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
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
	sb.Register(99, func(_ Header, payload *netbuf.Chain) {
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
		if err := sa.sendFragment(sa.nics[1], hdr, payload); err != nil {
			t.Fatal(err)
		}
	}
	const recycles = 1000
	for i := 0; i < recycles; i++ {
		whole()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
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
		if err := eng.RunUntil(t0.Add(d)); err != nil {
			t.Fatal(err)
		}
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
		for _, p := range []*netbuf.Pool{st.Node().TxPool, st.Node().BlkPool} {
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
