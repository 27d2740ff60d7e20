package tcp

import (
	"bytes"
	"errors"
	"math/rand"
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
	tcp  *Transport
	addr eth.Addr
}

func twoHosts(t *testing.T) (*sim.Engine, *host, *host) {
	t.Helper()
	return twoHostsAt(t, simnet.Gbps)
}

// twoHostsAt is twoHosts with both links at bw.
func twoHostsAt(t *testing.T, bw simnet.Bandwidth) (*sim.Engine, *host, *host) {
	t.Helper()
	eng := sim.NewEngine()
	a, b := hostsOn(t, eng, simnet.NewNetwork(eng, 5*sim.Microsecond), bw)
	return eng, a, b
}

// hostsOn attaches hosts a (address 1) and b (address 2) to nw, both links
// at bw.
func hostsOn(t *testing.T, eng *sim.Engine, nw *simnet.Network, bw simnet.Bandwidth) (*host, *host) {
	t.Helper()
	mk := func(name string, addr eth.Addr) *host {
		n := simnet.NewNode(eng, name, simnet.DefaultProfile())
		if _, err := nw.Attach(n, addr, bw); err != nil {
			t.Fatalf("attach %s: %v", name, err)
		}
		ip := ipv4.NewStack(n)
		return &host{node: n, ip: ip, tcp: NewTransport(ip), addr: addr}
	}
	return mk("a", 1), mk("b", 2)
}

// collectServer accepts one connection and accumulates its stream.
func collectServer(t *testing.T, h *host, port uint16) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := h.tcp.Listen(port, func(c *Conn) {
		c.SetReceiver(func(data *netbuf.Chain) {
			buf.Write(data.Flatten())
			data.Release()
		})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return &buf
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	eng, a, b := twoHosts(t)
	got := collectServer(t, b, 3260)
	var estab bool
	a.tcp.Connect(a.addr, b.addr, 3260, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		estab = true
		if err := c.Send([]byte("iscsi login")); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	eng.Run()
	if !estab {
		t.Fatal("handshake did not complete")
	}
	if got.String() != "iscsi login" {
		t.Fatalf("received %q", got.String())
	}
	if a.tcp.ProtocolErrors != 0 || b.tcp.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d/%d", a.tcp.ProtocolErrors, b.tcp.ProtocolErrors)
	}
}

func TestLargeTransferSegmentsInOrder(t *testing.T) {
	eng, a, b := twoHosts(t)
	got := collectServer(t, b, 80)
	want := make([]byte, 1<<20) // 1 MB: exceeds window, exercises ack clocking
	rand.New(rand.NewSource(1)).Read(want)
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		// Send in several chunks, as an application would.
		for off := 0; off < len(want); off += 128 * 1024 {
			end := off + 128*1024
			if end > len(want) {
				end = len(want)
			}
			if err := c.Send(want[off:end]); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	})
	eng.Run()
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", got.Len(), len(want))
	}
	if b.tcp.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", b.tcp.ProtocolErrors)
	}
}

func TestSendChainZeroCopy(t *testing.T) {
	eng, a, b := twoHosts(t)
	got := collectServer(t, b, 80)
	payload := a.node.TxPool.GetChain(bytes.Repeat([]byte("q"), 8192))
	before := a.node.Copies.PhysicalOps
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if err := c.SendChain(payload); err != nil {
			t.Errorf("SendChain: %v", err)
		}
	})
	eng.Run()
	if got.Len() != 8192 {
		t.Fatalf("received %d bytes, want 8192", got.Len())
	}
	if a.node.Copies.PhysicalOps != before {
		t.Fatal("SendChain physically copied payload")
	}
}

func TestBidirectionalEcho(t *testing.T) {
	eng, a, b := twoHosts(t)
	if err := b.tcp.Listen(7, func(c *Conn) {
		c.SetReceiver(func(data *netbuf.Chain) {
			// Echo straight back, zero-copy.
			if err := c.SendChain(data); err != nil {
				t.Errorf("echo: %v", err)
			}
		})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var echoed bytes.Buffer
	a.tcp.Connect(a.addr, b.addr, 7, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.SetReceiver(func(data *netbuf.Chain) {
			echoed.Write(data.Flatten())
			data.Release()
		})
		if err := c.Send([]byte("marco")); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	eng.Run()
	if echoed.String() != "marco" {
		t.Fatalf("echo = %q", echoed.String())
	}
}

func TestConnectToClosedPortIgnored(t *testing.T) {
	eng, a, b := twoHosts(t)
	var gotConn *Conn
	gotErr := error(nil)
	called := 0
	a.tcp.Connect(a.addr, b.addr, 4444, func(c *Conn, err error) {
		called++
		gotConn, gotErr = c, err
	})
	eng.Run()
	// A SYN to a closed port is refused with RST: the callback fires
	// exactly once with a connection-refused error.
	if called != 1 {
		t.Fatalf("connect callback fired %d times, want 1", called)
	}
	if gotConn != nil || gotErr == nil {
		t.Fatalf("callback got (%v, %v), want (nil, refused)", gotConn, gotErr)
	}
	if len(a.tcp.conns) != 0 {
		t.Fatalf("refused connection leaked state: %d conns", len(a.tcp.conns))
	}
}

// TestSendOnClosedConnFails: a connection ends by reset. The end that aborts
// tells its peer with RST, the peer tears down on it, Send fails on both, and
// neither transport keeps the connection.
func TestSendOnClosedConnFails(t *testing.T) {
	eng, a, b := twoHosts(t)
	var server, client *Conn
	if err := b.tcp.Listen(11, func(c *Conn) {
		server = c
		eng.Schedule(0, func() { c.abort(ErrConnReset, true) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	a.tcp.Connect(a.addr, b.addr, 11, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
		}
		client = c
	})
	eng.Run()
	if client == nil || server == nil {
		t.Fatal("no connection")
	}
	for _, c := range []*Conn{client, server} {
		if err := c.Send([]byte("late")); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Send on a reset connection: %v, want %v", err, ErrConnClosed)
		}
	}
	if len(a.tcp.conns) != 0 || len(b.tcp.conns) != 0 {
		t.Fatalf("connections leaked: %d/%d", len(a.tcp.conns), len(b.tcp.conns))
	}
	if a.tcp.AbortedConns != 1 || b.tcp.AbortedConns != 1 {
		t.Fatalf("aborted connections %d/%d, want 1/1", a.tcp.AbortedConns, b.tcp.AbortedConns)
	}
}

func TestDoubleListenRejected(t *testing.T) {
	_, a, _ := twoHosts(t)
	if err := a.tcp.Listen(80, func(*Conn) {}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if err := a.tcp.Listen(80, func(*Conn) {}); err == nil {
		t.Fatal("double Listen succeeded")
	}
}

func TestConcurrentConnections(t *testing.T) {
	eng, a, b := twoHosts(t)
	recv := map[uint16]*bytes.Buffer{}
	if err := b.tcp.Listen(5000, func(c *Conn) {
		buf := &bytes.Buffer{}
		recv[c.key.remotePort] = buf
		c.SetReceiver(func(d *netbuf.Chain) {
			buf.Write(d.Flatten())
			d.Release()
		})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	for i := 0; i < 8; i++ {
		i := i
		a.tcp.Connect(a.addr, b.addr, 5000, func(c *Conn, err error) {
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
			if err := c.Send([]byte{byte('A' + i)}); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		})
	}
	eng.Run()
	if len(recv) != 8 {
		t.Fatalf("connections received = %d, want 8", len(recv))
	}
	seen := map[string]bool{}
	for _, buf := range recv {
		seen[buf.String()] = true
	}
	for i := 0; i < 8; i++ {
		if !seen[string([]byte{byte('A' + i)})] {
			t.Fatalf("missing payload from connection %d", i)
		}
	}
}

func TestSegmentsRespectMSS(t *testing.T) {
	eng, a, b := twoHosts(t)
	collectServer(t, b, 80)
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if err := c.Send(make([]byte, 100*1024)); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	eng.Run()
	// Every frame the sender transmitted must fit the MTU.
	mtu := a.node.NICs()[0].MTU
	if got := a.node.NICs()[0].Stats.BytesTx; got == 0 {
		t.Fatal("nothing sent")
	}
	// Expected segment count: ceil(100KB / MSS) data segments (plus
	// handshake); MSS = MTU - 20 - 16.
	mss := mtu - 20 - 16
	wantData := (100*1024 + mss - 1) / mss
	tx := int(a.node.NICs()[0].Stats.PacketsTx)
	if tx < wantData || tx > wantData+5 {
		t.Fatalf("sender packets = %d, want ≈%d data segments", tx, wantData)
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	// With acks never returning (receiver side dropped), the sender must
	// stop at the window, not stream unboundedly.
	eng, a, b := twoHosts(t)
	if err := b.tcp.Listen(80, func(c *Conn) {
		c.SetReceiver(func(d *netbuf.Chain) { d.Release() })
		// Sabotage: drop the server's outbound acks by detaching its
		// connection map entry is intrusive; instead we simply count
		// what the sender put on the wire before acks arrive. Use a
		// one-way far latency so acks lag.
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var conn *Conn
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		conn = c
		if err := c.Send(make([]byte, 4*DefaultWindow)); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	// Run only a sliver of virtual time: enough to transmit the window,
	// not enough for the first ack round trip to clock more out.
	eng.RunUntil(30 * 1000) // 30µs
	if conn == nil {
		t.Skip("handshake did not finish in the sliver; timing model changed")
	}
	inflight := conn.sndNxt - conn.sndUna
	if inflight > DefaultWindow {
		t.Fatalf("in-flight %d exceeds window %d", inflight, DefaultWindow)
	}
	eng.Run()
}

func TestAcksCostPackets(t *testing.T) {
	// The receiver of a long stream must transmit ack packets — the
	// per-packet overhead that makes TCP dearer than UDP in the paper.
	eng, a, b := twoHosts(t)
	collectServer(t, b, 80)
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if err := c.Send(make([]byte, 64*1024)); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	eng.Run()
	acks := b.node.NICs()[0].Stats.PacketsTx
	// 64KB at ~1464B/segment = ~45 segments, delayed ack 1 per 2 → >20.
	if acks < 20 {
		t.Fatalf("receiver sent %d packets, expected >20 acks", acks)
	}
}
