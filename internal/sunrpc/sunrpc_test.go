package sunrpc

import (
	"bytes"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/xdr"
)

type host struct {
	node *simnet.Node
	udp  *udp.Transport
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
		return &host{node: n, udp: udp.NewTransport(ipv4.NewStack(n)), addr: addr}
	}
	return eng, mk("client", 1), mk("server", 2)
}

const (
	progTest = 100099
	versTest = 1
)

func TestCallReplyRoundTrip(t *testing.T) {
	eng, cl, sv := rig(t)
	srv, err := NewServer(sv.udp, 2049)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
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

	rpc, err := NewClient(cl.udp, cl.addr, 700)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	e := xdr.NewEncoder(8)
	e.Uint32(21)
	var result uint32
	err = rpc.Call(sv.addr, 2049, progTest, versTest, 7, argsMsg(rpc.Node(), e.Bytes()), nil, func(r Reply, err error) {
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
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if result != 42 {
		t.Fatalf("result = %d, want 42", result)
	}
	if rpc.Pending() != 0 {
		t.Fatalf("pending = %d", rpc.Pending())
	}
}

func TestPayloadChainsTravelUncopied(t *testing.T) {
	eng, cl, sv := rig(t)
	srv, err := NewServer(sv.udp, 2049)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	blob := bytes.Repeat([]byte("D"), 8192)
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
	rpc, err := NewClient(cl.udp, cl.addr, 700)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	payload := netbuf.ChainFromBytes(blob, netbuf.DefaultBufSize)
	var echoed []byte
	if err := rpc.Call(sv.addr, 2049, progTest, versTest, 1, argsMsg(rpc.Node(), nil), payload, func(r Reply, err error) {
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
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(echoed, blob) {
		t.Fatalf("echo corrupted: %d bytes", len(echoed))
	}
	if sv.node.Copies.PhysicalOps != serverCopies {
		t.Fatal("server physically copied the payload")
	}
}

func TestUnknownProgramAndProc(t *testing.T) {
	eng, cl, sv := rig(t)
	srv, err := NewServer(sv.udp, 2049)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Register(progTest, versTest, 1, func(c Call) { c.Body.Release() })
	rpc, err := NewClient(cl.udp, cl.addr, 700)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	var got []uint32
	record := func(r Reply, err error) {
		if err == nil {
			got = append(got, r.Accept)
			if r.Body != nil {
				r.Body.Release()
			}
		}
	}
	if err := rpc.Call(sv.addr, 2049, 999999, 1, 1, argsMsg(rpc.Node(), nil), nil, record); err != nil {
		t.Fatal(err)
	}
	if err := rpc.Call(sv.addr, 2049, progTest, versTest, 99, argsMsg(rpc.Node(), nil), nil, record); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != AcceptProgUnavail || got[1] != AcceptProcUnavail {
		t.Fatalf("accept stats = %v, want [prog_unavail proc_unavail]", got)
	}
	if srv.BadCalls != 2 {
		t.Fatalf("BadCalls = %d, want 2", srv.BadCalls)
	}
}

func TestGarbageDatagramCounted(t *testing.T) {
	eng, cl, sv := rig(t)
	srv, err := NewServer(sv.udp, 2049)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	// Raw junk straight at the RPC port: too short, then malformed.
	if err := cl.udp.Send(cl.addr, 99, sv.addr, 2049, []byte("short")); err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, 64) // zeros: msgtype/rpcvers wrong
	if err := cl.udp.Send(cl.addr, 99, sv.addr, 2049, bad); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if srv.BadCalls != 2 {
		t.Fatalf("BadCalls = %d, want 2", srv.BadCalls)
	}
}

func TestUnmatchedReplyCounted(t *testing.T) {
	eng, cl, sv := rig(t)
	rpc, err := NewClient(cl.udp, cl.addr, 700)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	// Forge an accepted reply with an xid the client never issued.
	e := xdr.NewEncoder(24)
	e.Uint32(0xdeadbeef)
	e.Uint32(1) // reply
	e.Uint32(0)
	e.Uint32(0)
	e.Uint32(0)
	e.Uint32(AcceptSuccess)
	if err := sv.udp.Send(sv.addr, 2049, cl.addr, 700, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rpc.BadReplies != 1 {
		t.Fatalf("BadReplies = %d, want 1", rpc.BadReplies)
	}
	if rpc.Pending() != 0 {
		t.Fatalf("Pending = %d", rpc.Pending())
	}
}

func TestManyOutstandingCalls(t *testing.T) {
	eng, cl, sv := rig(t)
	srv, err := NewServer(sv.udp, 2049)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Register(progTest, versTest, 2, func(c Call) {
		body := c.Body.Flatten()
		c.Body.Release()
		if err := reply(c, body, nil); err != nil { // echo args
			t.Errorf("Reply: %v", err)
		}
	})
	rpc, err := NewClient(cl.udp, cl.addr, 700)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	const n = 32
	results := map[uint32]bool{}
	for i := uint32(0); i < n; i++ {
		e := xdr.NewEncoder(4)
		e.Uint32(i)
		if err := rpc.Call(sv.addr, 2049, progTest, versTest, 2, argsMsg(rpc.Node(), e.Bytes()), nil, func(r Reply, err error) {
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
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != n {
		t.Fatalf("distinct replies = %d, want %d", len(results), n)
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
// they are sent in and pulled into stack arrays on receipt, an RPC round trip
// costs the per-call state only — the client's pending-call record and three
// continuations (dispatch on the server, completion and its charge on the
// client), five objects with the test's own closure; the encoders, scratch
// buffers and header copies are gone.
func TestCallReplyAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, cl, sv := rig(t)
	srv, err := NewServer(sv.udp, 2049)
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(progTest, versTest, 7, func(c Call) {
		c.Body.Release()
		hb, head := c.ReplyBuf(4)
		e := xdr.Over(head)
		e.Uint32(42)
		if err := c.Send(hb, nil); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	rpc, err := NewClient(cl.udp, cl.addr, 700)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	call := func() {
		msg, args := CallBuf(rpc.Node(), 4)
		e := xdr.Over(args)
		e.Uint32(21)
		if err := rpc.Call(sv.addr, 2049, progTest, versTest, 7, msg, nil, func(r Reply, err error) {
			if err != nil || r.Accept != AcceptSuccess || r.Body.Len() != 4 {
				t.Errorf("reply: %+v, %v", r, err)
			}
			r.Body.Release()
			got++
		}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		call()
	}
	if avg := testing.AllocsPerRun(200, call); avg > 5 {
		t.Fatalf("one RPC round trip allocates %.1f objects, budget 5", avg)
	}
	if got != 8+201 {
		t.Fatalf("%d replies, want %d", got, 8+201)
	}
}
