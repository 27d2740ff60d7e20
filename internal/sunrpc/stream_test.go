package sunrpc

import (
	"bytes"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/tcp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/xdr"
)

func TestRecordStreamFraming(t *testing.T) {
	// Three records of varying size, delivered in awkward chunks.
	var wire []byte
	var want [][]byte
	for i, n := range []int{1, 100, 4096} {
		payload := bytes.Repeat([]byte{byte('A' + i)}, n)
		want = append(want, payload)
		mark := make([]byte, 4)
		mark[0] = 0x80 | byte(n>>24)
		mark[1] = byte(n >> 16)
		mark[2] = byte(n >> 8)
		mark[3] = byte(n)
		wire = append(wire, mark...)
		wire = append(wire, payload...)
	}
	for _, chunk := range []int{1, 3, 7, 64, 5000} {
		var got [][]byte
		rs := newRecordStream(func(rec *netbuf.Chain) {
			got = append(got, rec.Flatten())
			rec.Release()
		})
		for off := 0; off < len(wire); off += chunk {
			end := off + chunk
			if end > len(wire) {
				end = len(wire)
			}
			rs.push(netbuf.ChainFromBytes(wire[off:end], 48))
		}
		if len(got) != 3 {
			t.Fatalf("chunk %d: records = %d, want 3", chunk, len(got))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("chunk %d: record %d mismatch", chunk, i)
			}
		}
		if rs.Errors != 0 {
			t.Fatalf("chunk %d: errors = %d", chunk, rs.Errors)
		}
	}
}

func TestRecordStreamRejectsNonFinalFragment(t *testing.T) {
	rs := newRecordStream(func(rec *netbuf.Chain) { rec.Release() })
	// Mark without the last-fragment bit.
	rs.push(netbuf.ChainFromBytes([]byte{0x00, 0, 0, 4, 1, 2, 3, 4}, 8))
	if rs.Errors != 1 {
		t.Fatalf("errors = %d, want 1", rs.Errors)
	}
}

func TestStreamRPCEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	sn := simnet.NewNode(eng, "server", simnet.DefaultProfile())
	cn := simnet.NewNode(eng, "client", simnet.DefaultProfile())
	if _, err := nw.Attach(sn, 1, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(cn, 2, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	sTCP := tcp.NewTransport(ipv4.NewStack(sn))
	cTCP := tcp.NewTransport(ipv4.NewStack(cn))

	srv, err := NewStreamServer(sn, sTCP, 111)
	if err != nil {
		t.Fatalf("NewStreamServer: %v", err)
	}
	srv.Register(7, 1, 3, func(c Call) {
		// Echo args and payload back, zero-copy.
		args := c.Body.Flatten()
		c.Body.Release()
		payload := netbuf.ChainFromBytes(bytes.Repeat([]byte{0xEE}, 10000), netbuf.DefaultBufSize)
		if err := reply(c, args, payload); err != nil {
			t.Errorf("Reply: %v", err)
		}
	})

	var client *StreamClient
	DialStream(cn, cTCP.DialConn, 2, 1, 111, func(c *StreamClient, err error) {
		if err != nil {
			t.Fatalf("DialStream: %v", err)
		}
		client = c
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if client == nil {
		t.Fatal("no stream client")
	}

	e := xdr.NewEncoder(8)
	e.Uint32(0xfeedface)
	var gotHead uint32
	var gotBody int
	if err := client.Call(0, 0, 7, 1, 3, argsMsg(client.Node(), e.Bytes()), nil, func(r Reply, err error) {
		if err != nil {
			t.Fatalf("reply: %v", err)
		}
		d := xdr.NewDecoder(r.Body.Flatten())
		gotHead, _ = d.Uint32()
		gotBody = r.Body.Len() - 4
		r.Body.Release()
	}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotHead != 0xfeedface {
		t.Fatalf("echoed head = %#x", gotHead)
	}
	if gotBody != 10000 {
		t.Fatalf("payload = %d, want 10000", gotBody)
	}
	if client.Pending() != 0 || srv.BadCalls != 0 || client.BadReplies != 0 {
		t.Fatalf("counters: pending=%d bad=%d/%d", client.Pending(), srv.BadCalls, client.BadReplies)
	}
}

func TestStreamRPCUnknownProc(t *testing.T) {
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, sim.Microsecond)
	sn := simnet.NewNode(eng, "server", simnet.DefaultProfile())
	cn := simnet.NewNode(eng, "client", simnet.DefaultProfile())
	if _, err := nw.Attach(sn, 1, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(cn, 2, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	sTCP := tcp.NewTransport(ipv4.NewStack(sn))
	cTCP := tcp.NewTransport(ipv4.NewStack(cn))
	srv, err := NewStreamServer(sn, sTCP, 111)
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(7, 1, 1, func(c Call) { c.Body.Release() })
	var client *StreamClient
	DialStream(cn, cTCP.DialConn, 2, 1, 111, func(c *StreamClient, err error) { client = c })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var accept uint32 = 999
	if err := client.Call(0, 0, 7, 1, 42, argsMsg(client.Node(), nil), nil, func(r Reply, err error) {
		if err == nil {
			accept = r.Accept
			if r.Body != nil {
				r.Body.Release()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if accept != AcceptProcUnavail {
		t.Fatalf("accept = %d, want proc-unavail", accept)
	}
}
