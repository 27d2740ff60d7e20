package sunrpc

import (
	"strings"
	"testing"

	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/xdr"
)

// The tests here cover the ways a recycled call record could go wrong: a
// caller that re-enters the client from its completion, a timer armed for the
// record's previous call, and a reply to it.

// valueCall issues one call carrying v; got hears the value the reply carries.
func valueCall(t *testing.T, rpc *Client, v uint32, got func(uint32)) {
	t.Helper()
	msg, args := CallBuf(rpc.Node(), 4)
	e := xdr.Over(args)
	e.Uint32(v)
	if err := rpc.Call(progTest, versTest, 7, msg, nil, func(r Reply, err error) {
		if err != nil || r.Accept != AcceptSuccess {
			t.Errorf("call %d: %+v, %v", v, r, err)
			got(0)
			return
		}
		d := xdr.NewDecoder(r.Body.Flatten())
		r.Body.Release()
		res, _ := d.Uint32()
		got(res)
	}); err != nil {
		t.Fatalf("Call %d: %v", v, err)
	}
}

// argOf consumes a call's body and returns the value it carries.
func argOf(c Call) uint32 {
	d := xdr.NewDecoder(c.Body.Flatten())
	c.Body.Release()
	v, _ := d.Uint32()
	return v
}

// replyValue answers c with v.
func replyValue(t *testing.T, c Call, v uint32) {
	hb, head := c.ReplyBuf(4)
	e := xdr.Over(head)
	e.Uint32(v)
	if err := c.Send(hb, nil); err != nil {
		t.Errorf("Send: %v", err)
	}
}

// TestDoneReentersClient: a closed-loop caller issues its next call from
// inside done, so the record that just retired is taken again while the
// completion that retired it is still on the stack — a thousand deep here.
// Every reply must reach its own caller, and one record serves them all.
func TestDoneReentersClient(t *testing.T) {
	overFramings(t, func(t *testing.T, eng *sim.Engine, _ *host, srv *Server, rpc *Client) {
		srv.Register(progTest, versTest, 7, func(c Call) { replyValue(t, c, argOf(c)*2) })
		const depth = 1000
		done := 0
		var next func(v uint32)
		next = func(v uint32) {
			valueCall(t, rpc, v, func(res uint32) {
				if res != v*2 {
					t.Fatalf("call %d heard %d, want %d", v, res, v*2)
				}
				if done++; done < depth {
					next(v + 1)
				}
			})
		}
		next(1)
		eng.Run()
		if done != depth || rpc.Pending() != 0 {
			t.Fatalf("%d calls completed, %d pending; want %d, 0", done, rpc.Pending(), depth)
		}
		if !netbuf.DebugEnabled() && (len(rpc.free) != 1 || len(srv.calls) != 1) {
			t.Fatalf("%d client and %d server records in circulation, want 1 and 1", len(rpc.free), len(srv.calls))
		}
	})
}

// TestStaleTimerAfterRecycle: call 1 arms its resend timer for t = 10 ms and
// is answered at 5 ms; call 2, issued from its completion, takes the same
// record and is still outstanding when that instant passes (the server holds
// its reply until 12 ms, inside call 2's own interval). Nothing may be resent.
func TestStaleTimerAfterRecycle(t *testing.T) {
	eng, cl, sv := rig(t)
	srv := NewServer(sv.node)
	rpc := connectUDP(t, eng, cl, sv, srv)
	rpc.SetRetransmit(10*sim.Millisecond, 4)
	execs := 0
	srv.Register(progTest, versTest, 7, func(c Call) {
		execs++
		v := argOf(c)
		at := sim.Time(5 * sim.Millisecond)
		if v == 2 {
			at = sim.Time(12 * sim.Millisecond)
		}
		eng.At(at, func() { replyValue(t, c, v*2) })
	})
	var first, second *pendingCall
	var heard []uint32
	valueCall(t, rpc, 1, func(res uint32) {
		heard = append(heard, res)
		valueCall(t, rpc, 2, func(res uint32) { heard = append(heard, res) })
		second = rpc.pending[2]
	})
	first = rpc.pending[1]
	eng.RunUntil(sim.Time(11 * sim.Millisecond))
	if rpc.Pending() != 1 || second == nil || (!netbuf.DebugEnabled() && first != second) {
		t.Fatalf("at 11 ms: %d pending, records %p and %p; want call 2 outstanding on call 1's record", rpc.Pending(), first, second)
	}
	eng.Run()
	if len(heard) != 2 || heard[0] != 2 || heard[1] != 4 {
		t.Fatalf("replies %v, want [2 4]", heard)
	}
	if rpc.Retransmits != 0 || rpc.Timeouts != 0 || execs != 2 {
		t.Fatalf("retransmits=%d timeouts=%d server executions=%d, want 0/0/2", rpc.Retransmits, rpc.Timeouts, execs)
	}
}

// TestDuplicateReplyAfterRecycle: the server answers xid 1 twice, the second
// time while the record that served it already carries xid 2. The duplicate
// is counted and dropped, and call 2 completes with its own bytes.
func TestDuplicateReplyAfterRecycle(t *testing.T) {
	eng, cl, sv := rig(t)
	srv := NewServer(sv.node)
	rpc := connectUDP(t, eng, cl, sv, srv)
	rpc.SetRetransmit(10*sim.Millisecond, 4)
	srv.Register(progTest, versTest, 7, func(c Call) {
		v := argOf(c)
		if v == 1 {
			replyValue(t, c, 100)
			eng.Schedule(2*sim.Millisecond, func() { replyValue(t, c, 100) })
			return
		}
		eng.Schedule(5*sim.Millisecond, func() { replyValue(t, c, 200) })
	})
	var heard []uint32
	valueCall(t, rpc, 1, func(res uint32) {
		heard = append(heard, res)
		valueCall(t, rpc, 2, func(res uint32) { heard = append(heard, res) })
	})
	eng.Run()
	if len(heard) != 2 || heard[0] != 100 || heard[1] != 200 {
		t.Fatalf("replies %v, want [100 200]", heard)
	}
	if rpc.DupReplies != 1 || rpc.BadReplies != 0 || rpc.Retransmits != 0 || rpc.Pending() != 0 {
		t.Fatalf("dup=%d bad=%d retransmits=%d pending=%d, want 1/0/0/0", rpc.DupReplies, rpc.BadReplies, rpc.Retransmits, rpc.Pending())
	}
}

// TestCallRecordsPoisonedInDebugMode: under netbuf debug mode a retired record
// is abandoned, not recycled, on both sides, and completing a call a second
// time panics instead of completing whichever call holds the record now.
func TestCallRecordsPoisonedInDebugMode(t *testing.T) {
	was := netbuf.DebugEnabled()
	netbuf.SetDebug(true)
	defer netbuf.SetDebug(was)
	eng, cl, sv := rig(t)
	srv := NewServer(sv.node)
	rpc := connectUDP(t, eng, cl, sv, srv)
	srv.Register(progTest, versTest, 7, func(c Call) { replyValue(t, c, argOf(c)) })
	heard := uint32(0)
	valueCall(t, rpc, 7, func(res uint32) { heard = res })
	pc := rpc.pending[1]
	eng.Run()
	if heard != 7 || len(rpc.free) != 0 || len(srv.calls) != 0 {
		t.Fatalf("heard %d; debug mode recycled %d client and %d server records", heard, len(rpc.free), len(srv.calls))
	}
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "retired twice") {
			t.Errorf("second delivery: recovered %v, want a panic mentioning \"retired twice\"", p)
		}
	}()
	pc.fire()
}
