package udp

import (
	"bytes"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

type host struct {
	node *simnet.Node
	ip   *ipv4.Stack
	udp  *Transport
	addr eth.Addr
}

// send transmits plain bytes, copied into the sender's transmit pool.
func send(t *Transport, src eth.Addr, srcPort uint16, dst eth.Addr, dstPort uint16, p []byte) error {
	ch := t.node.TxPool.GetChain(p)
	return t.SendChain(src, srcPort, dst, dstPort, ch)
}

func twoHosts(t *testing.T) (*sim.Engine, *host, *host) {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	mk := func(name string, addr eth.Addr) *host {
		n := simnet.NewNode(eng, name, simnet.DefaultProfile())
		if _, err := nw.Attach(n, addr, simnet.Gbps); err != nil {
			t.Fatalf("attach %s: %v", name, err)
		}
		ip := ipv4.NewStack(n)
		return &host{node: n, ip: ip, udp: NewTransport(ip), addr: addr}
	}
	return eng, mk("a", 1), mk("b", 2)
}

func TestSmallDatagram(t *testing.T) {
	eng, a, b := twoHosts(t)
	var got Datagram
	var payload []byte
	if err := b.udp.Bind(2049, func(dg Datagram) {
		got = dg
		payload = dg.Payload.Flatten()
		dg.Payload.Release()
	}); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := send(a.udp, a.addr, 700, b.addr, 2049, []byte("rpc call")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(payload) != "rpc call" {
		t.Fatalf("payload = %q", payload)
	}
	if got.Src != 1 || got.Dst != 2 || got.SrcPort != 700 || got.DstPort != 2049 {
		t.Fatalf("addressing = %+v", got)
	}
}

func TestLargeDatagramFragmentsAndReassembles(t *testing.T) {
	eng, a, b := twoHosts(t)
	want := make([]byte, 32*1024) // an NFS 32 KB read reply sized payload
	for i := range want {
		want[i] = byte(i * 31)
	}
	var got []byte
	var bufsInChain int
	if err := b.udp.Bind(9, func(dg Datagram) {
		got = dg.Payload.Flatten()
		bufsInChain = dg.Payload.NumBufs()
		dg.Payload.Release()
	}); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := send(a.udp, a.addr, 10, b.addr, 9, want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload mismatch: got %d bytes", len(got))
	}
	if bufsInChain < 22 {
		t.Fatalf("expected many wire buffers after zero-copy reassembly, got %d", bufsInChain)
	}
	// 32KB+8 at 1480 B/fragment = 23 fragments.
	if tx := a.node.NICs()[0].Stats.PacketsTx; tx != 23 {
		t.Fatalf("fragments sent = %d, want 23", tx)
	}
	if a.ip.ReasmErrors != 0 || b.ip.ReasmErrors != 0 {
		t.Fatal("reassembly errors on lossless fabric")
	}
}

func TestSendChainZeroCopy(t *testing.T) {
	eng, a, b := twoHosts(t)
	payload := netbuf.ChainFromBytes(bytes.Repeat([]byte("z"), 4096), netbuf.DefaultBufSize)
	copiesBefore := a.node.Copies.PhysicalOps
	var got []byte
	if err := b.udp.Bind(1, func(dg Datagram) {
		got = dg.Payload.Flatten()
		dg.Payload.Release()
	}); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := a.udp.SendChain(a.addr, 2, b.addr, 1, payload); err != nil {
		t.Fatalf("SendChain: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 4096 {
		t.Fatalf("got %d bytes", len(got))
	}
	if a.node.Copies.PhysicalOps != copiesBefore {
		t.Fatalf("SendChain performed %d physical copies, want 0",
			a.node.Copies.PhysicalOps-copiesBefore)
	}
}

func TestOversizeDatagramRejected(t *testing.T) {
	_, a, b := twoHosts(t)
	big := netbuf.ChainFromBytes(make([]byte, 70000), netbuf.DefaultBufSize)
	if err := a.udp.SendChain(a.addr, 1, b.addr, 1, big); err == nil {
		t.Fatal("oversize datagram accepted")
	}
}

func TestUnboundPortDiscarded(t *testing.T) {
	eng, a, b := twoHosts(t)
	if err := send(a.udp, a.addr, 1, b.addr, 4242, []byte("nobody home")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	_ = b
}

func TestDoubleBindRejected(t *testing.T) {
	_, a, _ := twoHosts(t)
	if err := a.udp.Bind(5, func(Datagram) {}); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := a.udp.Bind(5, func(Datagram) {}); err == nil {
		t.Fatal("double Bind succeeded")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	eng, a, b := twoHosts(t)
	delivered := false
	if err := b.udp.Bind(77, func(dg Datagram) {
		delivered = true
		dg.Payload.Release()
	}); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	payload := netbuf.ChainFromBytes([]byte("integrity matters here"), netbuf.DefaultBufSize)
	data := payload.Bufs()[0].Bytes()
	if err := a.udp.SendChain(a.addr, 1, b.addr, 77, payload); err != nil {
		t.Fatalf("SendChain: %v", err)
	}
	// The frame is on the wire and shares the payload buffer: flip its last
	// byte in flight, after the sender has summed it.
	data[len(data)-1] ^= 0xff
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered {
		t.Fatal("corrupted datagram was delivered")
	}
	if b.udp.BadChecksums != 1 {
		t.Fatalf("BadChecksums = %d, want 1", b.udp.BadChecksums)
	}
}

func TestReplyFromArrivalAddress(t *testing.T) {
	// A server with two NICs must reply from the address the request hit.
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, sim.Microsecond)
	server := simnet.NewNode(eng, "server", simnet.DefaultProfile())
	client := simnet.NewNode(eng, "client", simnet.DefaultProfile())
	if _, err := nw.Attach(server, 10, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(server, 11, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(client, 20, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	sIP := ipv4.NewStack(server)
	cIP := ipv4.NewStack(client)
	sUDP := NewTransport(sIP)
	cUDP := NewTransport(cIP)

	if err := sUDP.Bind(2049, func(dg Datagram) {
		dg.Payload.Release()
		if err := send(sUDP, dg.Dst, dg.DstPort, dg.Src, dg.SrcPort, []byte("pong")); err != nil {
			t.Errorf("reply: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	var replySrc eth.Addr
	if err := cUDP.Bind(999, func(dg Datagram) {
		replySrc = dg.Src
		dg.Payload.Release()
	}); err != nil {
		t.Fatal(err)
	}
	if err := send(cUDP, 20, 999, 11, 2049, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if replySrc != 11 {
		t.Fatalf("reply came from %v, want 11 (the NIC the request hit)", replySrc)
	}
}
