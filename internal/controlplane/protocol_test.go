package controlplane

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// cpNet is a little control-plane testbed: the CP node and two front-end
// agents (buildCPNetOf builds more).
type cpNet struct {
	eng    *sim.Engine
	nw     *simnet.Network
	cp     *Server
	cpUDP  *udp.Transport
	agents []*Agent
	invals [][]int64 // per-agent invalidated LBNs
	seed   uint64    // the fault injector's
}

const (
	tCPAddr  = eth.Addr(1)
	tServer0 = eth.Addr(0x10)
)

// buildCPNet wires the testbed with two servers.
func buildCPNet(t *testing.T) *cpNet { return buildCPNetOf(t, 2) }

// buildCPNetOf wires the testbed. The agents' nodes are srv0, srv1, …, so a
// fault schedule can pick one server's link. Faults draw from seed 1 unless
// NCACHE_FAULT_SEED (the CI seed matrix) names another.
func buildCPNetOf(t *testing.T, numServers int) *cpNet {
	t.Helper()
	servers := make([]eth.Addr, numServers)
	for i := range servers {
		servers[i] = tServer0 + eth.Addr(8*i)
	}
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	n := &cpNet{eng: eng, nw: nw, seed: 1}
	if s := os.Getenv("NCACHE_FAULT_SEED"); s != "" {
		var err error
		if n.seed, err = strconv.ParseUint(s, 10, 64); err != nil {
			t.Fatalf("NCACHE_FAULT_SEED=%q: %v", s, err)
		}
	}
	host := func(name string, addr eth.Addr) (*simnet.Node, *udp.Transport) {
		node := simnet.NewNode(eng, name, simnet.DefaultProfile())
		if _, err := nw.Attach(node, addr, simnet.Gbps); err != nil {
			t.Fatal(err)
		}
		return node, udp.NewTransport(ipv4.NewStack(node))
	}

	cpNode, cpUDP := host("cp", tCPAddr)
	n.cp, n.cpUDP = NewServer(cpNode, servers), cpUDP
	if err := n.cp.ServeUDP(cpUDP); err != nil {
		t.Fatal(err)
	}

	n.invals = make([][]int64, numServers)
	for i, addr := range servers {
		i := i
		node, udpT := host(fmt.Sprintf("srv%d", i), addr)
		ag, err := NewAgent(node, udpT, addr, tCPAddr, i)
		if err != nil {
			t.Fatal(err)
		}
		ag.SetInvalidate(func(lbns []int64) {
			n.invals[i] = append(n.invals[i], lbns...)
		})
		n.agents = append(n.agents, ag)
	}
	return n
}

// runt sends a 3-byte datagram from the control plane's service port to an
// agent and lets it land.
func (n *cpNet) runt(t *testing.T, to *Agent) {
	t.Helper()
	if err := n.cpUDP.SendChain(tCPAddr, Port, to.local, Port, netbuf.ChainFromBytes([]byte{1, 2, 3}, netbuf.DefaultBufSize)); err != nil {
		t.Fatal(err)
	}
	n.run(t)
}

// inject replaces the network's fault schedules with scheds, armed, and
// returns the injector: its report counts the injections, Quiesce lifts them.
func (n *cpNet) inject(scheds ...fault.Schedule) *fault.Injector {
	in := fault.New(n.eng, n.seed)
	for _, s := range scheds {
		in.Add(s)
	}
	n.nw.SetFaults(in)
	in.Arm()
	return in
}

// drop loses every frame crossing target, bounded as limit says (a count, or
// a window).
func (n *cpNet) drop(target string, limit fault.Schedule) *fault.Injector {
	limit.Class, limit.Target, limit.Rate = fault.FrameDrop, target, 1
	return n.inject(limit)
}

// delayed is a schedule that holds every frame crossing target back by d.
func delayed(target string, d sim.Duration) fault.Schedule {
	return fault.Schedule{Class: fault.FrameDelay, Target: target, Rate: 1, Delay: d}
}

// run drains the engine.
func (n *cpNet) run(t *testing.T) {
	t.Helper()
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// runFor advances the engine by d.
func (n *cpNet) runFor(t *testing.T, d sim.Duration) {
	t.Helper()
	if err := n.eng.RunFor(d); err != nil {
		t.Fatal(err)
	}
}

// budget is how long a request on a path at the floor is resent before it is
// abandoned: the sum of its waits, each twice the one before up to the cap.
// budget(k) is also when its k+1'th send leaves.
func budget(sends int) sim.Duration {
	var total sim.Duration
	wait := DefaultRetryRTO
	for i := 0; i < sends; i++ {
		total += wait
		wait = min(2*wait, maxRetryRTO)
	}
	return total
}

// checkDrained: every LBN handed to an agent was announced or abandoned, and
// no round or queue entry is left behind.
func (n *cpNet) checkDrained(t *testing.T) {
	t.Helper()
	for i, ag := range n.agents {
		st := ag.Stats
		if st.LBNsQueued != st.LBNsAnnounced+st.LBNsAbandoned || len(ag.queue) != 0 || ag.pending != nil {
			t.Errorf("agent %d: %d LBNs queued, %d announced, %d abandoned; %d still queued, round in flight: %v",
				i, st.LBNsQueued, st.LBNsAnnounced, st.LBNsAbandoned, len(ag.queue), ag.pending != nil)
		}
	}
	if got := n.cp.PendingRemaps(); got != 0 {
		t.Errorf("%d remaps still pending at the control plane", got)
	}
}

// TestWireRoundTrip: every field of a message survives Encode → decode,
// including an LBN list; the header is 48 bytes with every retired field
// (bytes 6–19 and 28–43) encoded as zero; a datagram whose length prefix
// disagrees with its size, and a runt, decode to nothing; and a well-formed
// datagram of a retired type (1 and 2, registration; 3 and 4, the per-handle
// lookup; 9 and 10, the member-set fetch), or a remap or invalidation ack
// naming an origin outside the member set, is one protocol error at the
// server and nothing else — never an index past the server's slots.
func TestWireRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "n", simnet.DefaultProfile())
	in := Msg{
		Type:   MsgRemap,
		Server: 1,
		From:   1,
		Seq:    9,
		LBNs:   []int64{1, 5, 9, 1 << 40},
	}
	ch := Encode(node.TxPool, in)
	wire := ch.Flatten()
	if len(wire) != frameLenBytes+48+8*len(in.LBNs) {
		t.Fatalf("a %d-LBN message encodes to %d bytes: the header is no longer 48", len(in.LBNs), len(wire))
	}
	hdr := wire[frameLenBytes:]
	for _, zero := range [][2]int{{1, 2}, {6, 20}, {28, 44}} {
		for i := zero[0]; i < zero[1]; i++ {
			if hdr[i] != 0 {
				t.Fatalf("header byte %d = %#x, want 0: a retired field is back on the wire", i, hdr[i])
			}
		}
	}
	out, ok := decode(ch)
	if !ok {
		t.Fatal("decode rejected an encoded message")
	}
	if out.Type != in.Type || out.Server != in.Server || out.From != in.From || out.Seq != in.Seq {
		t.Fatalf("header mismatch: %+v != %+v", out, in)
	}
	if len(out.LBNs) != len(in.LBNs) {
		t.Fatalf("LBNs: %v != %v", out.LBNs, in.LBNs)
	}
	for i := range in.LBNs {
		if out.LBNs[i] != in.LBNs[i] {
			t.Fatalf("LBNs[%d]: %d != %d", i, out.LBNs[i], in.LBNs[i])
		}
	}
	for _, bad := range [][]byte{wire[:len(wire)-1], append(wire[:len(wire):len(wire)], 0), wire[:3]} {
		if _, ok := decode(netbuf.ChainFromBytes(bad, netbuf.DefaultBufSize)); ok {
			t.Fatalf("decode accepted a %d-byte datagram of a %d-byte frame", len(bad), len(wire))
		}
	}
	codes := []MsgType{MsgRemap, MsgRemapAck, MsgInvalidate, MsgInvalidateAck}
	if want := []MsgType{5, 6, 7, 8}; !slices.Equal(codes, want) {
		t.Fatalf("message codes = %v, want %v: a surviving type code moved", codes, want)
	}

	n := buildCPNet(t)
	bad := []Msg{
		{Type: MsgRemap, Server: 2, Seq: 1, LBNs: []int64{5}},
		{Type: MsgInvalidateAck, Server: 2, From: 0, Seq: 1},
	}
	for _, retired := range []MsgType{1, 2, 3, 4, 9, 10} {
		bad = append(bad, Msg{Type: retired, Seq: 1})
	}
	for _, m := range bad {
		before, agents := n.cp.Stats, [2]AgentStats{n.agents[0].Stats, n.agents[1].Stats}
		n.agents[0].send(m)
		n.run(t)
		before.Errors++
		if n.cp.Stats != before {
			t.Fatalf("%+v: server stats %+v, want %+v (one error, nothing else)", m, n.cp.Stats, before)
		}
		if now := [2]AgentStats{n.agents[0].Stats, n.agents[1].Stats}; now != agents {
			t.Fatalf("%+v was answered: agents %+v, were %+v", m, now, agents)
		}
	}
}

// TestProtocolUDP exercises remap → invalidate → ack, with no handshake
// before it: the agents and the service know each other's addresses from
// the member set.
func TestProtocolUDP(t *testing.T) {
	n := buildCPNet(t)

	// A remap from server 0 must invalidate exactly its peers, then ack
	// the origin.
	n.agents[0].SendRemap([]int64{5, 6, 7})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.cp.Stats.RemapsStarted != 1 {
		t.Fatalf("RemapsStarted = %d, want 1", n.cp.Stats.RemapsStarted)
	}
	if n.agents[0].Stats.RemapsAcked != 1 {
		t.Fatalf("origin acked %d remaps, want 1", n.agents[0].Stats.RemapsAcked)
	}
	if len(n.invals[0]) != 0 {
		t.Fatalf("origin invalidated its own blocks: %v", n.invals[0])
	}
	if got := n.invals[1]; len(got) != 3 || got[0] != 5 || got[1] != 6 || got[2] != 7 {
		t.Fatalf("peer invalidations = %v, want [5 6 7]", got)
	}
	if st := n.agents[0].Stats; st.LBNsQueued != 3 || st.LBNsAnnounced != 3 {
		t.Fatalf("origin queued %d LBNs and announced %d, want 3 and 3", st.LBNsQueued, st.LBNsAnnounced)
	}
	n.checkDrained(t)
}

// TestRuntDatagramCostsNoResend: a runt from the control-plane address is
// dropped alone — the valid message after it is applied on its first
// transmission, at the peer (MsgInvalidate) and at the origin (MsgRemapAck).
// A receive path that keeps bytes across datagrams glues the runt to the
// next frame and the sender pays a retry timeout.
func TestRuntDatagramCostsNoResend(t *testing.T) {
	n := buildCPNet(t)
	n.runt(t, n.agents[1])
	n.runt(t, n.agents[0])
	n.agents[0].SendRemap([]int64{5, 6, 7})
	n.run(t)
	if got := n.invals[1]; len(got) != 3 {
		t.Fatalf("peer invalidations = %v, want [5 6 7]", got)
	}
	if n.cp.Stats.InvalidationResends != 0 {
		t.Fatalf("InvalidationResends = %d, want 0: the runt cost the next invalidation a retry",
			n.cp.Stats.InvalidationResends)
	}
	if st := n.agents[0].Stats; st.RemapsAcked != 1 || st.RemapRetries != 0 {
		t.Fatalf("RemapsAcked = %d, RemapRetries = %d; want 1, 0: the runt cost the remap ack a retry",
			st.RemapsAcked, st.RemapRetries)
	}
}

// TestRemapDuplicateIdempotent: redelivering a completed remap (same
// server/seq pair) must re-ack without a second invalidation round.
func TestRemapDuplicateIdempotent(t *testing.T) {
	n := buildCPNet(t)
	n.agents[0].SendRemap([]int64{11, 12})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.cp.Stats.RemapsStarted != 1 || n.cp.Stats.RemapDups != 0 {
		t.Fatalf("after first remap: started=%d dups=%d", n.cp.Stats.RemapsStarted, n.cp.Stats.RemapDups)
	}
	sent := n.cp.Stats.InvalidationsSent
	acked := n.cp.Stats.RemapAcksSent

	// Redeliver the identical remap straight into the dispatch path (the
	// wire would produce exactly this on a retransmission whose original
	// ack was lost).
	n.cp.dispatch(Msg{
		Type:   MsgRemap,
		Server: 0,
		Seq:    1,
		LBNs:   []int64{11, 12},
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.cp.Stats.RemapDups != 1 {
		t.Fatalf("RemapDups = %d, want 1", n.cp.Stats.RemapDups)
	}
	if n.cp.Stats.RemapAcksSent != acked+1 {
		t.Fatalf("duplicate remap re-acked %d times, want 1", n.cp.Stats.RemapAcksSent-acked)
	}
	if n.cp.Stats.InvalidationsSent != sent {
		t.Fatalf("duplicate remap sent %d extra invalidations",
			n.cp.Stats.InvalidationsSent-sent)
	}
	if got := n.invals[1]; len(got) != 2 {
		t.Fatalf("peer applied %d invalidations, want 2 (no re-apply)", len(got))
	}
}

// loopCounts is what became of one request, read off the testbed once the
// engine has drained.
type loopCounts struct {
	// arrived counts the transmissions that reached their receiver.
	arrived uint64
	// first and again are the owner's own send counters.
	first, again uint64
	// abandoned counts how often abandon's effect happened.
	abandoned uint64
}

// TestRequestLoop runs the protocol's one resend loop under each of its two
// owners, with the first k of its transmissions lost: the request goes out
// min(k+1, max) times, the owner counts one first send and the rest as
// resends, giving up happens once and only when all max were lost, and the
// loop leaves no timer behind. The path's estimator takes a sample only from
// the request that was sent once (Karn): one that was resent leaves srtt and
// rttvar alone and hands its wait — doubled per resend from the floor, up to
// the cap — to whoever uses the path next.
func TestRequestLoop(t *testing.T) {
	owners := []struct {
		name string
		max  int
		// lossSite is the fault site the owner's transmissions cross.
		lossSite string
		// path is the estimator the owner's requests belong to.
		path func(n *cpNet) *sim.RTT
		// start issues the request and returns how to read the outcome.
		start func(t *testing.T, n *cpNet) func() loopCounts
	}{
		{"remap chunk", DefaultRetryMax, "cp.rx", func(n *cpNet) *sim.RTT { return &n.agents[0].path }, func(t *testing.T, n *cpNet) func() loopCounts {
			ag := n.agents[0]
			ag.SendRemap([]int64{5, 6, 7})
			return func() loopCounts {
				if ag.pending != nil {
					t.Errorf("the remap is still pending: acked %d, abandoned %d", ag.Stats.RemapsAcked, ag.Stats.RemapsAbandoned)
				}
				if ag.Stats.RemapsAcked+ag.Stats.RemapsAbandoned != 1 {
					t.Errorf("chunk acked %d times and abandoned %d times, want one or the other", ag.Stats.RemapsAcked, ag.Stats.RemapsAbandoned)
				}
				return loopCounts{arrived: n.cp.Stats.RemapsStarted + n.cp.Stats.RemapDups,
					first: ag.Stats.RemapsSent, again: ag.Stats.RemapRetries, abandoned: ag.Stats.RemapsAbandoned}
			}
		}},
		{"invalidation to one peer", DefaultRetryMax, "srv1.rx", func(n *cpNet) *sim.RTT { return &n.cp.paths[1] }, func(t *testing.T, n *cpNet) func() loopCounts {
			n.agents[0].SendRemap([]int64{5, 6, 7})
			return func() loopCounts {
				if n.cp.PendingRemaps() != 0 {
					t.Errorf("%d remaps still pending at the server", n.cp.PendingRemaps())
				}
				return loopCounts{arrived: n.agents[1].Stats.InvalidationsRcvd,
					first: n.cp.Stats.InvalidationsSent, again: n.cp.Stats.InvalidationResends, abandoned: n.cp.Stats.Abandoned}
			}
		}},
	}
	for _, o := range owners {
		for _, k := range []int{0, 1, o.max - 1, o.max} {
			o, k := o, k
			t.Run(fmt.Sprintf("%s/lose %d of %d", o.name, k, o.max), func(t *testing.T) {
				n := buildCPNet(t)
				var in *fault.Injector // a Count of 0 would mean no limit: to lose nothing, arm nothing
				if k > 0 {
					in = n.drop(o.lossSite, fault.Schedule{Count: uint64(k)})
				}
				path := o.path(n)
				before := *path
				observe := o.start(t, n)
				if err := n.eng.Run(); err != nil {
					t.Fatal(err)
				}
				if n.eng.Pending() != 0 {
					t.Fatalf("%d events still pending after the drain", n.eng.Pending())
				}
				got := observe()
				var lost uint64
				for _, r := range in.Report() {
					lost += r.Injected
				}
				sends, gaveUp := uint64(k+1), uint64(0)
				if k == o.max {
					sends, gaveUp = uint64(o.max), 1
				}
				if lost+got.arrived != sends || lost != uint64(k) {
					t.Errorf("%d transmissions lost + %d arrived, want %d sends of which %d lost", lost, got.arrived, sends, k)
				}
				if got.first != 1 || got.again != sends-1 {
					t.Errorf("owner counted %d first sends and %d resends, want 1 and %d", got.first, got.again, sends-1)
				}
				if got.abandoned != gaveUp {
					t.Errorf("abandon took effect %d times, want %d", got.abandoned, gaveUp)
				}
				if k == 0 {
					if *path == before || path.SRTT <= 0 || path.Backed != 0 {
						t.Errorf("a request sent once left the estimator at %+v (was %+v), want one sample folded in", *path, before)
					}
				} else {
					// The wait behind the last send: what the path hands on.
					backed := budget(int(sends)) - budget(int(sends)-1)
					if path.SRTT != before.SRTT || path.RTTVar != before.RTTVar || path.Backed != backed {
						t.Errorf("a request sent %d times left the estimator at %+v (was %+v), want no sample and backed = %v", sends, *path, before, backed)
					}
				}
			})
		}
	}
}

// TestFaultControlPlaneStateBounded: the protocol state is sized by the
// member set, not by how many remaps the control plane has carried. Four
// servers announce 10× fig-scaleout's 157 remaps, each origin its next one as
// soon as the last settles, through a control node that loses a quarter of
// the frames in each direction — so remaps are resent, invalidations resent
// and some of each given up on, and an origin's next remap can overtake a
// fan-out its origin abandoned. At quiesce everything has drained, no
// invalidation was applied twice, and the server and every agent hold at
// most one slot per server.
func TestFaultControlPlaneStateBounded(t *testing.T) {
	const servers, perServer = 4, (10*157 + 3) / 4
	n := buildCPNetOf(t, servers)
	scheds, err := fault.ParseSpec("drop:cp*:rate=0.25")
	if err != nil {
		t.Fatal(err)
	}
	in := n.inject(scheds...)
	for i, ag := range n.agents {
		i, ag := i, ag
		k := 0
		var tick func()
		tick = func() {
			if ag.pending == nil {
				ag.SendRemap([]int64{int64(k*servers + i)})
				k++
			}
			if k < perServer {
				n.eng.Schedule(sim.Millisecond, tick)
			}
		}
		n.eng.Schedule(0, tick)
	}
	n.run(t)

	var sent, abandoned, dropped uint64
	for _, ag := range n.agents {
		sent += ag.Stats.RemapsSent
		abandoned += ag.Stats.RemapsAbandoned
	}
	for _, r := range in.Report() {
		dropped += r.Injected
	}
	t.Logf("%d remaps sent, %d started, %d abandoned by their origin; %d invalidations resent, %d abandoned; %d frames dropped",
		sent, n.cp.Stats.RemapsStarted, abandoned, n.cp.Stats.InvalidationResends, n.cp.Stats.Abandoned, dropped)
	if sent != servers*perServer || n.cp.Stats.RemapsStarted+abandoned < sent || dropped == 0 {
		t.Fatalf("%d remaps sent, %d started, %d abandoned, %d frames dropped: want %d sent, each started or abandoned, under loss",
			sent, n.cp.Stats.RemapsStarted, abandoned, dropped, servers*perServer)
	}
	n.checkDrained(t)
	if got := len(n.cp.latest); got != servers {
		t.Errorf("the control plane holds %d remap states after %d remaps, want one slot per server (%d)",
			got, n.cp.Stats.RemapsStarted, servers)
	}
	for i, ag := range n.agents {
		if got := len(ag.applied); got > servers {
			t.Errorf("agent %d holds %d dedup entries after %d invalidations, want at most one per server (%d)",
				i, got, ag.Stats.InvalidationsRcvd, servers)
		}
		seen := make(map[int64]bool, len(n.invals[i]))
		for _, lbn := range n.invals[i] {
			if seen[lbn] || int(lbn)%servers == i {
				t.Fatalf("agent %d applied LBN %d twice, or its own", i, lbn)
			}
			seen[lbn] = true
		}
	}
}
