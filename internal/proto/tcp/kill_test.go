package tcp

import (
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// killFabric is node a with two NICs, one for a TCP connection to b and
// one for UDP datagrams to and from c, each datagram four fragments long.
type killFabric struct {
	eng            *sim.Engine
	a, b, c        *simnet.Node
	aTCP, aUDP     *simnet.NIC
	bNIC, cNIC     *simnet.NIC
	udpA, udpC     *udp.Transport
	conn           *Conn // a's end
	datagramsSent  int
	datagramsTaken int
}

const (
	killStream    = 64 << 10
	killDatagram  = 5000
	killDatagrams = 4
)

func newKillFabric(t *testing.T) *killFabric {
	t.Helper()
	f := &killFabric{eng: sim.NewEngine()}
	nw := simnet.NewNetwork(f.eng, 5*sim.Microsecond)
	attach := func(n *simnet.Node, addr eth.Addr) *simnet.NIC {
		nic, err := nw.Attach(n, addr, simnet.Gbps)
		if err != nil {
			t.Fatalf("attach %s: %v", n.Name, err)
		}
		return nic
	}
	f.a = simnet.NewNode(f.eng, "a", simnet.DefaultProfile())
	f.b = simnet.NewNode(f.eng, "b", simnet.DefaultProfile())
	f.c = simnet.NewNode(f.eng, "c", simnet.DefaultProfile())
	f.aTCP, f.aUDP = attach(f.a, 1), attach(f.a, 11)
	f.bNIC, f.cNIC = attach(f.b, 2), attach(f.c, 3)
	ipA, ipB, ipC := ipv4.NewStack(f.a), ipv4.NewStack(f.b), ipv4.NewStack(f.c)
	tcpA, tcpB := NewTransport(ipA), NewTransport(ipB)
	f.udpA, f.udpC = udp.NewTransport(ipA), udp.NewTransport(ipC)
	sink := func(dg udp.Datagram) {
		f.datagramsTaken++
		dg.Payload.Release()
	}
	for _, u := range []*udp.Transport{f.udpA, f.udpC} {
		if err := u.Bind(2049, sink); err != nil {
			t.Fatalf("Bind: %v", err)
		}
	}
	// b answers a's stream with one of its own.
	if err := tcpB.Listen(3260, func(c *Conn) {
		c.SetReceiver(func(d *netbuf.Chain) { d.Release() })
		if err := c.SendChain(f.b.TxPool.GetChain(make([]byte, killStream))); err != nil {
			t.Errorf("b SendChain: %v", err)
		}
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	tcpA.Connect(1, 2, 3260, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		f.conn = c
		c.SetReceiver(func(d *netbuf.Chain) { d.Release() })
		if err := c.SendChain(f.a.TxPool.GetChain(make([]byte, killStream))); err != nil {
			t.Errorf("a SendChain: %v", err)
		}
		for i := 0; i < killDatagrams; i++ {
			f.send(t, f.udpA, 11, 3, f.a)
			f.send(t, f.udpC, 3, 11, f.c)
		}
	})
	return f
}

// send sends one datagram from src to dst on u.
func (f *killFabric) send(t *testing.T, u *udp.Transport, src, dst eth.Addr, n *simnet.Node) {
	t.Helper()
	if err := u.SendChain(src, 2049, dst, 2049, n.TxPool.GetChain(make([]byte, killDatagram))); err != nil {
		t.Fatalf("udp SendChain: %v", err)
	}
	f.datagramsSent++
}

// inFlight reports whether frames are on their way over both of a's links
// in both directions — TCP segments to and from b, UDP fragments to and from
// c — and a holds a segment from b that crossed quiet (a chain built from
// b's pools) for its upcall.
func (f *killFabric) inFlight() bool {
	for _, n := range []*simnet.Node{f.a, f.b, f.c} {
		n.HandOver()
	}
	return f.bNIC.Stats.PacketsTx > f.aTCP.Stats.PacketsRx && f.aTCP.Stats.PacketsTx > f.bNIC.Stats.PacketsRx &&
		f.cNIC.Stats.PacketsTx > f.aUDP.Stats.PacketsRx && f.aUDP.Stats.PacketsTx > f.cNIC.Stats.PacketsRx &&
		f.conn.qh < len(f.conn.quiet)
}

// TestKillWithSegmentsAndFragmentsInFlight kills a node while TCP segments
// and fragments of UDP datagrams travel both ways on its links. Once the
// fabric is quiet — the peer's connection has given up on the dead one, the
// surviving frames have landed — every pool of every node is drained: what
// the dead process held, whatever pool built it, went back at the kill.
func TestKillWithSegmentsAndFragmentsInFlight(t *testing.T) {
	f := newKillFabric(t)
	killed := false
	for i := 0; i < 2000 && !killed; i++ {
		f.eng.RunFor(sim.Microsecond)
		if f.conn != nil && f.inFlight() {
			f.a.Kill()
			killed = true
		}
	}
	if !killed {
		t.Fatal("no microsecond had frames in flight both ways on both of a's links and a quiet segment held")
	}
	if f.datagramsTaken == f.datagramsSent {
		t.Fatal("every datagram had landed at the kill")
	}
	f.eng.Run()
	for _, n := range []*simnet.Node{f.a, f.b, f.c} {
		for _, p := range n.Pools() {
			p.MustBeDrained()
		}
	}
}
