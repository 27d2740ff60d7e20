package ipv4

import (
	"bytes"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
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
	sim.NewRNG(4).Fill(want)
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
	if tx := sa.Node().NIC(0).Stats.PacketsTx; tx != 14 {
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

func TestStackAddrs(t *testing.T) {
	_, sa, _ := stackPair(t)
	addrs := sa.Addrs()
	if len(addrs) != 1 || addrs[0] != eth.Addr(1) {
		t.Fatalf("Addrs = %v", addrs)
	}
}

// TestStackPacketAllocFree gates the per-packet path through the network
// layer: an unfragmented datagram — header buffer, Charge on transmit, the
// wire, Charge on receive, parse, deliver — costs no object: the frame hop
// below is free (see simnet's TestFrameHopAllocFree) and the stack adds no
// closure per packet in either direction.
func TestStackPacketAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, sa, sb := stackPair(t)
	delivered := 0
	sb.Register(99, func(_ Header, payload *netbuf.Chain) {
		delivered += payload.Len()
		payload.Release()
	})
	body := make([]byte, 1024)
	packet := func() {
		payload, err := sa.Node().TxPool.GetChain(body)
		if err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("one datagram allocates %.0f objects end to end, want 0", avg)
	}
	if delivered != (4+201)*len(body) {
		t.Fatalf("delivered %d bytes, want %d", delivered, (4+201)*len(body))
	}
}
