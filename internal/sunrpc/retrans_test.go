package sunrpc

import (
	"errors"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/xdr"
)

// faultRig is rig plus an armed fault injector on the network.
func faultRig(t *testing.T, spec string) (*sim.Engine, *host, *host) {
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
	cl, sv := mk("client", 1), mk("server", 2)
	in, err := fault.NewFromSpec(eng, 1, spec)
	if err != nil {
		t.Fatalf("NewFromSpec: %v", err)
	}
	nw.SetFaults(in)
	in.Arm()
	return eng, cl, sv
}

// doubler registers the canonical test procedure and returns a pointer to
// its execution count (retransmitted calls execute server-side again: this
// minimal server has no duplicate-request cache).
func doubler(t *testing.T, sv *host) *int {
	t.Helper()
	srv := NewServer(sv.node)
	if err := srv.ServeUDP(sv.udp, 2049); err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
	execs := new(int)
	srv.Register(progTest, versTest, 7, func(c Call) {
		*execs++
		d := xdr.NewDecoder(c.Body.Flatten())
		c.Body.Release()
		v, _ := d.Uint32()
		e := xdr.NewEncoder(8)
		e.Uint32(v * 2)
		if err := reply(c, e.Bytes(), nil); err != nil {
			t.Errorf("Reply: %v", err)
		}
	})
	return execs
}

// callOnce issues one doubling call and returns (replies seen, result, err).
func callOnce(t *testing.T, eng *sim.Engine, rpc *Client) (int, uint32, error) {
	t.Helper()
	e := xdr.NewEncoder(8)
	e.Uint32(21)
	replies, result := 0, uint32(0)
	var cerr error
	err := rpc.Call(progTest, versTest, 7, argsMsg(rpc.Node(), e.Bytes()), nil, func(r Reply, err error) {
		replies++
		cerr = err
		if err == nil {
			d := xdr.NewDecoder(r.Body.Flatten())
			r.Body.Release()
			result, _ = d.Uint32()
		}
	})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	eng.Run()
	return replies, result, cerr
}

// TestFaultRetransmitRecoversLoss drops the first two transmissions of the
// call; the client's RTO must fire twice (with backoff) and the third try
// completes the call transparently.
func TestFaultRetransmitRecoversLoss(t *testing.T) {
	eng, cl, sv := faultRig(t, "drop:client.tx:rate=1:count=2")
	execs := doubler(t, sv)
	rpc, err := NewClient(cl.udp, cl.addr, 700, sv.addr, 2049)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	rpc.SetRetransmit(sim.Millisecond, 4)

	replies, result, cerr := callOnce(t, eng, rpc)
	if cerr != nil || replies != 1 || result != 42 {
		t.Fatalf("replies=%d result=%d err=%v", replies, result, cerr)
	}
	if rpc.Retransmits != 2 || rpc.Timeouts != 0 {
		t.Fatalf("retransmits=%d timeouts=%d, want 2/0", rpc.Retransmits, rpc.Timeouts)
	}
	if *execs != 1 {
		t.Fatalf("server executed %d times, want 1 (both drops were pre-delivery)", *execs)
	}
	if rpc.Pending() != 0 {
		t.Fatalf("pending = %d after completion", rpc.Pending())
	}
	// The recovery wait (two RTOs, the second doubled) elapsed on the clock.
	if eng.Now() < sim.Time(3*sim.Millisecond) {
		t.Fatalf("clock %v, want ≥3ms of backoff", eng.Now())
	}
}

// TestFaultRetransmitGivesUp drops every transmission: after maxTries the
// call must surface ErrTimeout exactly once and leave no pending state.
func TestFaultRetransmitGivesUp(t *testing.T) {
	eng, cl, sv := faultRig(t, "drop:client.tx:rate=1")
	execs := doubler(t, sv)
	rpc, err := NewClient(cl.udp, cl.addr, 700, sv.addr, 2049)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	rpc.SetRetransmit(sim.Millisecond, 3)

	replies, _, cerr := callOnce(t, eng, rpc)
	if replies != 1 || !errors.Is(cerr, ErrTimeout) {
		t.Fatalf("replies=%d err=%v, want one ErrTimeout", replies, cerr)
	}
	if rpc.Retransmits != 2 || rpc.Timeouts != 1 {
		t.Fatalf("retransmits=%d timeouts=%d, want 2/1", rpc.Retransmits, rpc.Timeouts)
	}
	if *execs != 0 || rpc.Pending() != 0 {
		t.Fatalf("execs=%d pending=%d after giving up", *execs, rpc.Pending())
	}
}

// TestFaultDuplicateReplySuppressed delays the first reply beyond the RTO:
// the client retransmits, the server (no duplicate-request cache) executes
// again and both replies eventually arrive. The second-arriving reply must
// be suppressed as a duplicate — not surfaced, not counted as malformed.
func TestFaultDuplicateReplySuppressed(t *testing.T) {
	eng, cl, sv := faultRig(t, "delay:server.tx:rate=1:count=1:delay=2ms")
	execs := doubler(t, sv)
	rpc, err := NewClient(cl.udp, cl.addr, 700, sv.addr, 2049)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	rpc.SetRetransmit(sim.Millisecond, 4)

	replies, result, cerr := callOnce(t, eng, rpc)
	if cerr != nil || replies != 1 || result != 42 {
		t.Fatalf("replies=%d result=%d err=%v, want exactly one success", replies, result, cerr)
	}
	if *execs != 2 {
		t.Fatalf("server executed %d times, want 2 (original + retransmit)", *execs)
	}
	if rpc.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", rpc.Retransmits)
	}
	if rpc.DupReplies != 1 {
		t.Fatalf("dup replies = %d, want 1", rpc.DupReplies)
	}
	if rpc.BadReplies != 0 {
		t.Fatalf("duplicate counted as malformed: BadReplies = %d", rpc.BadReplies)
	}
	if rpc.Pending() != 0 {
		t.Fatalf("pending = %d", rpc.Pending())
	}
}

// TestFaultRetransmitOffByDefault checks the no-fault contract: without
// SetRetransmit a lost call simply stays lost (the legacy at-most-once
// behaviour the seed baselines were measured under), with no timer state.
func TestFaultRetransmitOffByDefault(t *testing.T) {
	eng, cl, sv := faultRig(t, "drop:client.tx:rate=1:count=1")
	doubler(t, sv)
	rpc, err := NewClient(cl.udp, cl.addr, 700, sv.addr, 2049)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	replies, _, _ := callOnce(t, eng, rpc)
	if replies != 0 {
		t.Fatalf("replies = %d, want 0 (no retransmission configured)", replies)
	}
	if rpc.Retransmits != 0 || rpc.Timeouts != 0 {
		t.Fatalf("retransmit machinery ran while disabled: %d/%d", rpc.Retransmits, rpc.Timeouts)
	}
	if rpc.Pending() != 1 {
		t.Fatalf("pending = %d, want the lost call still outstanding", rpc.Pending())
	}
}

// TestRetransmitFollowsLatency: a server that takes 30 ms to answer, behind a
// client whose resend floor is 20 ms. Nothing is known about the path, so the
// first call is resent and answered twice; it backs off, the next call starts
// from the backed-off interval, is sent once and measured, and from then on no
// call is resent — a fixed 20 ms timer resends every one of them, each
// executed and answered twice. The interval is the server's latency, not a
// longer constant: a call that is dropped is resent before two round trips
// have passed, and completes.
func TestRetransmitFollowsLatency(t *testing.T) {
	const (
		floor   = 20 * sim.Millisecond
		service = 30 * sim.Millisecond
		warmup  = 4
		calls   = 60
	)
	eng, cl, sv := faultRig(t, "drop:client.tx:rate=1:count=1:start=3s")
	srv := NewServer(sv.node)
	if err := srv.ServeUDP(sv.udp, 2049); err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
	execs := 0
	srv.Register(progTest, versTest, 7, func(c Call) {
		execs++
		c.Body.Release()
		eng.Schedule(service, func() {
			if err := reply(c, make([]byte, 8), nil); err != nil {
				t.Errorf("Reply: %v", err)
			}
		})
	})
	rpc, err := NewClient(cl.udp, cl.addr, 700, sv.addr, 2049)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	rpc.SetRetransmit(floor, 5)

	call := func() {
		t.Helper()
		replies, _, cerr := callOnce(t, eng, rpc)
		if replies != 1 || cerr != nil {
			t.Fatalf("replies=%d err=%v, want one success", replies, cerr)
		}
	}
	call()
	if rpc.Retransmits == 0 {
		t.Fatalf("the first call was not resent: the server never outran the %v floor, the test shows nothing", floor)
	}
	for i := 1; i < warmup; i++ {
		call()
	}
	resent, dups, ran := rpc.Retransmits, rpc.DupReplies, execs
	for i := 0; i < calls; i++ {
		call()
	}
	if got := rpc.Retransmits - resent; got != 0 {
		t.Errorf("%d of %d calls resent after warm-up, want 0: the client never learned the server's %v", got, calls, service)
	}
	if got, twice := rpc.DupReplies-dups, execs-ran-calls; got != 0 || twice != 0 {
		t.Errorf("after warm-up %d duplicate replies and %d calls executed twice, want 0 and 0", got, twice)
	}

	// The drop schedule opens at 3 s; everything above finished before it.
	if eng.Now() >= sim.Time(3*sim.Second) {
		t.Fatalf("clock %v: the warm calls ran into the drop window", eng.Now())
	}
	eng.RunUntil(sim.Time(3 * sim.Second))
	resent = rpc.Retransmits
	start := eng.Now()
	call()
	if got := rpc.Retransmits - resent; got != 1 {
		t.Errorf("the dropped call was resent %d times, want 1", got)
	}
	if took := eng.Now().Sub(start); took >= 3*service {
		t.Errorf("the dropped call took %v, want under two round trips and a timer (%v): the interval is not following the server", took, 3*service)
	}
	if rpc.Pending() != 0 || rpc.Timeouts != 0 {
		t.Errorf("pending=%d timeouts=%d at the end, want 0 and 0", rpc.Pending(), rpc.Timeouts)
	}
}
