package sunrpc

import (
	"bytes"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/tcp"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/xdr"
)

type host struct {
	node *simnet.Node
	udp  *udp.Transport
	tcp  *tcp.Transport
	addr eth.Addr
}

func rig(t *testing.T) (*sim.Engine, *host, *host) {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	mk := func(name string, addr eth.Addr) *host {
		n := simnet.NewNode(eng, name, simnet.DefaultProfile())
		if _, err := nw.Attach(n, addr, simnet.Gbps); err != nil {
			t.Fatalf("attach: %v", err)
		}
		ip := ipv4.NewStack(n)
		return &host{node: n, udp: udp.NewTransport(ip), tcp: tcp.NewTransport(ip), addr: addr}
	}
	return eng, mk("client", 1), mk("server", 2)
}

const (
	progTest = 100099
	versTest = 1
)

// connectUDP puts srv on the server host's UDP transport and returns a
// datagram client of it on the client host.
func connectUDP(t *testing.T, _ *sim.Engine, cl, sv *host, srv *Server) *Client {
	if err := srv.ServeUDP(sv.udp, 2049); err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
	rpc, err := NewClient(cl.udp, cl.addr, 700, sv.addr, 2049)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return rpc
}

// connectTCP is connectUDP over record-marked TCP.
func connectTCP(t *testing.T, eng *sim.Engine, cl, sv *host, srv *Server) *Client {
	if err := srv.ServeStream(sv.tcp, 2049); err != nil {
		t.Fatalf("ServeStream: %v", err)
	}
	var rpc *Client
	DialStream(cl.tcp, cl.addr, sv.addr, 2049, func(c *Client, err error) {
		if err != nil {
			t.Fatalf("DialStream: %v", err)
		}
		rpc = c
	})
	eng.Run()
	if rpc == nil {
		t.Fatal("no stream client")
	}
	return rpc
}

// framings is the one table the behavioural tests below run over: the two
// ways the one Server and the one Client reach each other.
var framings = []struct {
	name    string
	connect func(t *testing.T, eng *sim.Engine, cl, sv *host, srv *Server) *Client
}{
	{"udp", connectUDP},
	{"tcp", connectTCP},
}

// overFramings runs body once per framing, against a fresh server and a
// client connected to it.
func overFramings(t *testing.T, body func(t *testing.T, eng *sim.Engine, sv *host, srv *Server, rpc *Client)) {
	for _, f := range framings {
		f := f
		t.Run(f.name, func(t *testing.T) {
			eng, cl, sv := rig(t)
			srv := NewServer(sv.node)
			body(t, eng, sv, srv, f.connect(t, eng, cl, sv, srv))
		})
	}
}

func TestCallReplyRoundTrip(t *testing.T) {
	overFramings(t, func(t *testing.T, eng *sim.Engine, _ *host, srv *Server, rpc *Client) {
		srv.Register(progTest, versTest, 7, func(c Call) {
			args := c.Body.Flatten()
			c.Body.Release()
			d := xdr.NewDecoder(args)
			v, err := d.Uint32()
			if err != nil {
				t.Errorf("decode args: %v", err)
			}
			e := xdr.NewEncoder(8)
			e.Uint32(v * 2)
			if err := reply(c, e.Bytes(), nil); err != nil {
				t.Errorf("Reply: %v", err)
			}
		})
		e := xdr.NewEncoder(8)
		e.Uint32(21)
		var result uint32
		err := rpc.Call(progTest, versTest, 7, argsMsg(rpc.Node(), e.Bytes()), nil, func(r Reply, err error) {
			if err != nil {
				t.Errorf("reply err: %v", err)
				return
			}
			if r.Accept != AcceptSuccess {
				t.Errorf("accept = %d", r.Accept)
			}
			d := xdr.NewDecoder(r.Body.Flatten())
			r.Body.Release()
			result, _ = d.Uint32()
		})
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		eng.Run()
		if result != 42 {
			t.Fatalf("result = %d, want 42", result)
		}
		if rpc.Pending() != 0 || srv.BadCalls != 0 || rpc.BadReplies != 0 {
			t.Fatalf("counters: pending=%d bad=%d/%d", rpc.Pending(), srv.BadCalls, rpc.BadReplies)
		}
	})
}

func TestPayloadChainsTravelUncopied(t *testing.T) {
	overFramings(t, func(t *testing.T, eng *sim.Engine, sv *host, srv *Server, rpc *Client) {
		blob := bytes.Repeat([]byte("D"), 10000)
		srv.Register(progTest, versTest, 1, func(c Call) {
			// Echo the call payload back as the reply payload, zero-copy.
			got := c.Body
			if got.Len() != len(blob) {
				t.Errorf("server got %d bytes", got.Len())
			}
			if err := reply(c, nil, got); err != nil {
				t.Errorf("Reply: %v", err)
			}
		})
		payload := rpc.Node().TxPool.GetChain(blob)
		var echoed []byte
		if err := rpc.Call(progTest, versTest, 1, argsMsg(rpc.Node(), nil), payload, func(r Reply, err error) {
			if err != nil {
				t.Errorf("reply err: %v", err)
				return
			}
			echoed = r.Body.Flatten()
			r.Body.Release()
		}); err != nil {
			t.Fatalf("Call: %v", err)
		}
		serverCopies := sv.node.Copies.PhysicalOps
		eng.Run()
		if !bytes.Equal(echoed, blob) {
			t.Fatalf("echo corrupted: %d bytes", len(echoed))
		}
		if sv.node.Copies.PhysicalOps != serverCopies {
			t.Fatal("server physically copied the payload")
		}
	})
}

func TestUnknownProgramAndProc(t *testing.T) {
	overFramings(t, func(t *testing.T, eng *sim.Engine, _ *host, srv *Server, rpc *Client) {
		srv.Register(progTest, versTest, 1, func(c Call) { c.Body.Release() })
		var got []uint32
		record := func(r Reply, err error) {
			if err == nil {
				got = append(got, r.Accept)
				if r.Body != nil {
					r.Body.Release()
				}
			}
		}
		if err := rpc.Call(999999, 1, 1, argsMsg(rpc.Node(), nil), nil, record); err != nil {
			t.Fatal(err)
		}
		if err := rpc.Call(progTest, versTest, 99, argsMsg(rpc.Node(), nil), nil, record); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if len(got) != 2 || got[0] != AcceptProgUnavail || got[1] != AcceptProcUnavail {
			t.Fatalf("accept stats = %v, want [prog_unavail proc_unavail]", got)
		}
		if srv.BadCalls != 2 {
			t.Fatalf("BadCalls = %d, want 2", srv.BadCalls)
		}
	})
}

// TestGarbageDatagramCounted: junk on the client's own route to the server —
// a datagram, or a well-marked record — is counted and dropped, and the
// server keeps serving.
func TestGarbageDatagramCounted(t *testing.T) {
	overFramings(t, func(t *testing.T, eng *sim.Engine, _ *host, srv *Server, rpc *Client) {
		// Too short, then malformed (zeros: msgtype/rpcvers wrong).
		for _, junk := range [][]byte{[]byte("short"), make([]byte, 64)} {
			if err := rpc.send(rpc.Node().TxPool.GetChain(junk)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		if srv.BadCalls != 2 {
			t.Fatalf("BadCalls = %d, want 2", srv.BadCalls)
		}
	})
}

// TestUnmatchedReplyCounted: a reply whose xid the client never issued,
// arriving on the route its real replies take, is counted and dropped; the
// call in flight beside it completes.
func TestUnmatchedReplyCounted(t *testing.T) {
	overFramings(t, func(t *testing.T, eng *sim.Engine, _ *host, srv *Server, rpc *Client) {
		srv.Register(progTest, versTest, 1, func(c Call) {
			c.Body.Release()
			forged := make([]byte, replyHeaderLen)
			putReplyHeader(forged, 0xdeadbeef, AcceptSuccess)
			if err := c.send(c.pool.GetChain(forged)); err != nil {
				t.Errorf("forged reply: %v", err)
			}
			if err := reply(c, nil, nil); err != nil {
				t.Errorf("Reply: %v", err)
			}
		})
		replies := 0
		if err := rpc.Call(progTest, versTest, 1, argsMsg(rpc.Node(), nil), nil, func(r Reply, err error) {
			if err != nil {
				t.Errorf("reply err: %v", err)
				return
			}
			r.Body.Release()
			replies++
		}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if rpc.BadReplies != 1 {
			t.Fatalf("BadReplies = %d, want 1", rpc.BadReplies)
		}
		if replies != 1 || rpc.Pending() != 0 {
			t.Fatalf("replies = %d, pending = %d; want 1, 0", replies, rpc.Pending())
		}
	})
}

func TestManyOutstandingCalls(t *testing.T) {
	overFramings(t, func(t *testing.T, eng *sim.Engine, _ *host, srv *Server, rpc *Client) {
		srv.Register(progTest, versTest, 2, func(c Call) {
			body := c.Body.Flatten()
			c.Body.Release()
			if err := reply(c, body, nil); err != nil { // echo args
				t.Errorf("Reply: %v", err)
			}
		})
		const n = 32
		results := map[uint32]bool{}
		for i := uint32(0); i < n; i++ {
			e := xdr.NewEncoder(4)
			e.Uint32(i)
			if err := rpc.Call(progTest, versTest, 2, argsMsg(rpc.Node(), e.Bytes()), nil, func(r Reply, err error) {
				if err != nil {
					t.Errorf("reply err: %v", err)
					return
				}
				d := xdr.NewDecoder(r.Body.Flatten())
				r.Body.Release()
				v, _ := d.Uint32()
				results[v] = true
			}); err != nil {
				t.Fatalf("Call %d: %v", i, err)
			}
		}
		eng.Run()
		if len(results) != n {
			t.Fatalf("distinct replies = %d, want %d", len(results), n)
		}
	})
}

// TestSetRetransmitIgnoredOnStream: a stream client arms no RPC timer — TCP
// recovers loss below the record stream — so the transport comparison runs
// the same schedule with or without a fault plan's retransmission settings.
func TestSetRetransmitIgnoredOnStream(t *testing.T) {
	eng, cl, sv := rig(t)
	rpc := connectTCP(t, eng, cl, sv, NewServer(sv.node))
	rpc.SetRetransmit(sim.Millisecond, 4)
	if err := rpc.Call(progTest, versTest, 1, argsMsg(rpc.Node(), nil), nil, func(r Reply, err error) {
		if err != nil || r.Accept != AcceptProgUnavail {
			t.Errorf("reply: %+v, %v", r, err)
		}
		r.Body.Release()
	}); err != nil {
		t.Fatal(err)
	}
	if rpc.pending[1].wire != nil {
		t.Fatal("stream client retained a wire image for retransmission")
	}
	eng.Run()
	if rpc.Pending() != 0 || rpc.Retransmits != 0 {
		t.Fatalf("pending=%d retransmits=%d", rpc.Pending(), rpc.Retransmits)
	}
}

// argsMsg wraps an encoded argument head in a call buffer.
func argsMsg(node *simnet.Node, args []byte) *netbuf.Buf {
	msg, p := CallBuf(node, len(args))
	copy(p, args)
	return msg
}

// reply sends an already-encoded result head as a successful reply.
func reply(c Call, header []byte, payload *netbuf.Chain) error {
	hb, p := c.ReplyBuf(len(header))
	copy(p, header)
	return c.Send(hb, payload)
}

// TestCallReplyAllocBudget: with both headers encoded in the pooled buffers
// they are sent in and pulled into stack arrays on receipt, and the per-call
// state on either side held in one recycled record, an RPC round trip costs
// one object — the test's own completion closure.
func TestCallReplyAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, cl, sv := rig(t)
	srv := NewServer(sv.node)
	rpc := connectUDP(t, eng, cl, sv, srv)
	srv.Register(progTest, versTest, 7, func(c Call) {
		c.Body.Release()
		hb, head := c.ReplyBuf(4)
		e := xdr.Over(head)
		e.Uint32(42)
		if err := c.Send(hb, nil); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	got := 0
	call := func() {
		msg, args := CallBuf(rpc.Node(), 4)
		e := xdr.Over(args)
		e.Uint32(21)
		if err := rpc.Call(progTest, versTest, 7, msg, nil, func(r Reply, err error) {
			if err != nil || r.Accept != AcceptSuccess || r.Body.Len() != 4 {
				t.Errorf("reply: %+v, %v", r, err)
			}
			r.Body.Release()
			got++
		}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		call()
	}
	if avg := testing.AllocsPerRun(200, call); avg > 1 {
		t.Fatalf("one RPC round trip allocates %.1f objects, budget 1", avg)
	}
	if got != 8+201 {
		t.Fatalf("%d replies, want %d", got, 8+201)
	}
}
