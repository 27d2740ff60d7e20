package tcp

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// keepFrames replaces nic's receive handler with one that keeps every
// frame whole.
func keepFrames(nic *simnet.NIC) *[]*netbuf.Chain {
	var frames []*netbuf.Chain
	nic.SetRxHandler(func(f *netbuf.Chain, _ sim.Time, _ bool) { frames = append(frames, f) })
	return &frames
}

// checkHeaderWindow checks that a frame's first window holds exactly the
// Ethernet and IP headers and then transport header bytes of the given
// protocol, from src to dst, that its IP header reads frag (offset and more
// bit), and that the frame carries want bytes behind the first window.
func checkHeaderWindow(f *netbuf.Chain, src, dst eth.Addr, proto uint8, transport int, frag uint16, want int) error {
	w := f.Bufs()[0].Bytes()
	if len(w) != eth.HeaderLen+ipv4.HeaderLen+transport {
		return fmt.Errorf("first window holds %d bytes, want %d of headers", len(w), eth.HeaderLen+ipv4.HeaderLen+transport)
	}
	if got := eth.Addr(binary.BigEndian.Uint32(w[0:4])); got != dst {
		return fmt.Errorf("Ethernet destination %s, want %s", got, dst)
	}
	ip := w[eth.HeaderLen:]
	if ip[0] != 0x45 || ip[9] != proto || eth.Addr(binary.BigEndian.Uint32(ip[12:16])) != src {
		return fmt.Errorf("IP header % x is not protocol %d from %s", ip[:ipv4.HeaderLen], proto, src)
	}
	if got := binary.BigEndian.Uint16(ip[6:8]); got != frag {
		return fmt.Errorf("IP fragment field %#x, want %#x", got, frag)
	}
	if got := f.Len() - len(w); got != want {
		return fmt.Errorf("%d bytes behind the headers, want %d", got, want)
	}
	return nil
}

// checkHeaderPools checks that what a sender's frames in flight hold of its
// pools is hdr header buffers and no transmit buffer: the payloads below
// come from its block pool.
func checkHeaderPools(t *testing.T, n *simnet.Node, hdr int) {
	t.Helper()
	if got := n.HdrPool.Outstanding(); got != hdr {
		t.Errorf("%s holds %d buffers, want %d header buffers", n.HdrPool.Name(), got, hdr)
	}
	if got := n.TxPool.Outstanding(); got != 0 {
		t.Errorf("%s holds %d buffers: a header came from the transmit pool", n.TxPool.Name(), got)
	}
}

// releaseAll releases the tapped frames and checks that every pool of the
// nodes drains.
func releaseAll(t *testing.T, frames []*netbuf.Chain, nodes ...*simnet.Node) {
	t.Helper()
	for _, f := range frames {
		f.Release()
	}
	for _, n := range nodes {
		for _, p := range n.Pools() {
			p.MustBeDrained()
		}
	}
}

// TestHeaderLayout checks, with netbuf debugging off and on, where a frame's
// headers ride. An unfragmented TCP segment or UDP datagram leaves with one
// header window whose root is a header-pool buffer holding the Ethernet, IP
// and transport headers; each fragment of a fragmented datagram has one
// header-pool buffer of its own for its Ethernet and IP headers, and the
// first fragment carries the UDP header buffer behind it. No header comes
// from the transmit pool.
func TestHeaderLayout(t *testing.T) {
	was := netbuf.DebugEnabled()
	defer netbuf.SetDebug(was)
	for _, debug := range []bool{false, true} {
		netbuf.SetDebug(debug)
		t.Run(fmt.Sprintf("debug=%v", debug), func(t *testing.T) {
			t.Run("tcp", testTCPHeaderLayout)
			t.Run("udp", testUDPHeaderLayout)
			t.Run("udp-fragmented", testFragmentHeaderLayout)
		})
	}
}

func testTCPHeaderLayout(t *testing.T) {
	eng, a, b := twoHosts(t)
	if err := b.tcp.Listen(80, func(c *Conn) { c.SetReceiver(func(d *netbuf.Chain) { d.Release() }) }); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var conn *Conn
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
		}
		conn = c
	})
	eng.Run()
	if conn == nil {
		t.Fatal("handshake did not complete")
	}
	frames := keepFrames(b.node.NICs()[0])
	const n = 600
	if err := conn.SendChain(a.node.BlkPool.GetChain(make([]byte, n))); err != nil {
		t.Fatalf("SendChain: %v", err)
	}
	eng.RunFor(sim.Millisecond)
	if len(*frames) != 1 {
		t.Fatalf("%d frames reached b, want one segment", len(*frames))
	}
	if err := checkHeaderWindow((*frames)[0], a.addr, b.addr, ipv4.ProtoTCP, HeaderLen, 0, n); err != nil {
		t.Error(err)
	}
	checkHeaderPools(t, a.node, 1)
	conn.teardown(ErrConnClosed)
	releaseAll(t, *frames, a.node, b.node)
}

// udpHosts is twoHosts with a UDP transport on a.
func udpHosts(t *testing.T) (*sim.Engine, *host, *udp.Transport, *host) {
	t.Helper()
	eng, a, b := twoHosts(t)
	return eng, a, udp.NewTransport(a.ip), b
}

func testUDPHeaderLayout(t *testing.T) {
	eng, a, ua, b := udpHosts(t)
	frames := keepFrames(b.node.NICs()[0])
	const n = 600
	if err := ua.SendChain(a.addr, 700, b.addr, 2049, a.node.BlkPool.GetChain(make([]byte, n))); err != nil {
		t.Fatalf("SendChain: %v", err)
	}
	eng.Run()
	if len(*frames) != 1 {
		t.Fatalf("%d frames reached b, want one datagram", len(*frames))
	}
	if err := checkHeaderWindow((*frames)[0], a.addr, b.addr, ipv4.ProtoUDP, udp.HeaderLen, 0, n); err != nil {
		t.Error(err)
	}
	checkHeaderPools(t, a.node, 1)
	releaseAll(t, *frames, a.node, b.node)
}

func testFragmentHeaderLayout(t *testing.T) {
	eng, a, ua, b := udpHosts(t)
	frames := keepFrames(b.node.NICs()[0])
	const n = 4000
	if err := ua.SendChain(a.addr, 700, b.addr, 2049, a.node.BlkPool.GetChain(make([]byte, n))); err != nil {
		t.Fatalf("SendChain: %v", err)
	}
	eng.Run()
	maxFrag := (netbuf.DefaultBufSize - ipv4.HeaderLen) &^ 7
	total := udp.HeaderLen + n
	want := (total + maxFrag - 1) / maxFrag
	if len(*frames) != want {
		t.Fatalf("%d frames reached b, want %d fragments", len(*frames), want)
	}
	for i, f := range *frames {
		off := i * maxFrag
		frag := uint16(off / 8)
		if i < want-1 {
			frag |= 0x2000
		}
		if err := checkHeaderWindow(f, a.addr, b.addr, ipv4.ProtoUDP, 0, frag, min(maxFrag, total-off)); err != nil {
			t.Errorf("fragment %d: %v", i, err)
		}
	}
	if got := (*frames)[0].Bufs()[1].Len(); got != udp.HeaderLen {
		t.Errorf("the first fragment's second window holds %d bytes, want the %d-byte UDP header", got, udp.HeaderLen)
	}
	checkHeaderPools(t, a.node, want+1)
	releaseAll(t, *frames, a.node, b.node)
}
