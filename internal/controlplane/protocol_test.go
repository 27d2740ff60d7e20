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
	"ncache/internal/sunrpc"
	"ncache/internal/trace"
)

// cpNet is a little control-plane testbed: the CP node and two front-end
// agents (buildCPNetOf builds more).
type cpNet struct {
	eng    *sim.Engine
	nw     *simnet.Network
	cp     *Server
	cpUDP  *udp.Transport
	agents []*Agent
	udps   []*udp.Transport // the agents' transports
	invals [][]int64        // per-agent invalidated LBNs
	seed   uint64           // the fault injector's
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

	var err error
	_, n.cpUDP = host("cp", tCPAddr)
	if n.cp, err = NewServer(n.cpUDP, servers); err != nil {
		t.Fatal(err)
	}

	n.invals = make([][]int64, numServers)
	for i, addr := range servers {
		i := i
		_, udpT := host(fmt.Sprintf("srv%d", i), addr)
		ag, err := NewAgent(udpT, addr, tCPAddr, i)
		if err != nil {
			t.Fatal(err)
		}
		n.udps = append(n.udps, udpT)
		ag.SetInvalidate(func(lbns []int64) {
			n.invals[i] = append(n.invals[i], lbns...)
		})
		n.agents = append(n.agents, ag)
	}
	return n
}

// runt sends a 3-byte datagram from the control plane's service port to
// port on server i and lets it land.
func (n *cpNet) runt(t *testing.T, i int, port uint16) {
	t.Helper()
	if err := n.cpUDP.SendChain(tCPAddr, Port, tServer0+eth.Addr(8*i), port, n.cpUDP.Node().TxPool.GetChain([]byte{1, 2, 3})); err != nil {
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
	n.eng.Run()
}

// runFor advances the engine by d.
func (n *cpNet) runFor(t *testing.T, d sim.Duration) {
	t.Helper()
	n.eng.RunFor(d)
}

// retryCeil is the longest wait between two sends of a call: sunrpc's
// ceiling, 32 × the floor.
const retryCeil = 32 * retryFloor

// budget is how long a call on a path at the floor is resent before it is
// abandoned: the sum of its waits, each twice the one before up to the
// ceiling. budget(k) is also when its k+1'th send leaves.
func budget(sends int) sim.Duration {
	var total sim.Duration
	wait := retryFloor
	for i := 0; i < sends; i++ {
		total += wait
		wait = min(2*wait, retryCeil)
	}
	return total
}

// invalResends counts the control plane's INVALIDATE resends as they happen.
func (n *cpNet) invalResends() uint64 {
	var sum uint64
	for _, p := range n.cp.peers {
		sum += p.Retransmits
	}
	return sum
}

// checkDrained: every LBN handed to an agent was announced or abandoned, and
// no round or queue entry is left behind.
func (n *cpNet) checkDrained(t *testing.T) {
	t.Helper()
	for i, ag := range n.agents {
		st := ag.Stats
		if st.LBNsQueued != st.LBNsAnnounced+st.LBNsAbandoned || len(ag.queue) != 0 || ag.round != 0 {
			t.Errorf("agent %d: %d LBNs queued, %d announced, %d abandoned; %d still queued, %d in a round in flight",
				i, st.LBNsQueued, st.LBNsAnnounced, st.LBNsAbandoned, len(ag.queue), ag.round)
		}
	}
	if got := n.cp.PendingRemaps(); got != 0 {
		t.Errorf("%d remaps still pending at the control plane", got)
	}
}

// TestCallArgs: the arguments round-trip, the LBN list included; a count
// above MaxLBNs, a body shorter or longer than its count says, and a runt are
// rejected; a REMAP naming an origin outside the member set is one protocol
// error at the server and nothing else — never an index past its slots; and
// an INVALIDATE from any address but the control node's is refused: not
// applied, not answered.
func TestCallArgs(t *testing.T) {
	encode := func(lbns []int64) []byte {
		p := make([]byte, argsHead+8*len(lbns))
		putArgs(p, 1, 9, lbns)
		return p
	}
	pool := netbuf.NewPool("args", netbuf.DefaultHeadroom, netbuf.DefaultBufSize, 0)
	decode := func(p []byte) (int, uint64, []int64, error) {
		return decodeArgs(pool.GetChain(p), nil)
	}
	in := []int64{1, 5, 9, 1 << 40}
	wire := encode(in)
	server, seq, out, err := decode(wire)
	if err != nil || server != 1 || seq != 9 || !slices.Equal(out, in) {
		t.Fatalf("decoded (%d, %d, %v, %v), want (1, 9, %v, nil)", server, seq, out, err, in)
	}
	over := encode(lbnRange(0, MaxLBNs+1))
	for _, bad := range [][]byte{over, wire[:len(wire)-1], append(wire[:len(wire):len(wire)], 0), wire[:3]} {
		if _, _, _, err := decode(bad); err == nil {
			t.Fatalf("a %d-byte body decoded: %x", len(bad), bad)
		}
	}

	n := buildCPNet(t)
	before, agents := n.cp.Stats, [2]AgentStats{n.agents[0].Stats, n.agents[1].Stats}
	var answer sunrpc.Reply
	if err := call(n.agents[0].rpc, procRemap, 2, 1, []int64{5}, func(r sunrpc.Reply, err error) {
		release(r)
		answer = r
	}); err != nil {
		t.Fatal(err)
	}
	n.run(t)
	before.Errors++
	if n.cp.Stats != before || answer.Accept != sunrpc.AcceptGarbageArgs {
		t.Fatalf("a remap of origin 2 of 2: server stats %+v, answer %d; want %+v (one error, nothing else), %d",
			n.cp.Stats, answer.Accept, before, sunrpc.AcceptGarbageArgs)
	}
	if now := [2]AgentStats{n.agents[0].Stats, n.agents[1].Stats}; now != agents {
		t.Fatalf("agents %+v, were %+v", now, agents)
	}

	// Server 1 calls server 0's INVALIDATE service itself, once.
	forged, err := sunrpc.NewClient(n.udps[1], tServer0+8, Port+2, tServer0, Port)
	if err != nil {
		t.Fatal(err)
	}
	answered := false
	if err := call(forged, procInvalidate, 1, 1, []int64{5}, func(r sunrpc.Reply, err error) {
		release(r)
		answered = err == nil
	}); err != nil {
		t.Fatal(err)
	}
	n.run(t)
	if st := n.agents[0].Stats; answered || len(n.invals[0]) != 0 || st.InvalidationsRcvd != 0 || st.Errors != 1 {
		t.Fatalf("an INVALIDATE from a server: answered %v, applied %v, agent stats %+v; want refused, one error", answered, n.invals[0], st)
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
	n.eng.Run()
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
// dropped alone and counted — the valid message after it is applied on its
// first transmission, at the peer (an INVALIDATE call) and at the origin (the
// REMAP reply). A receive path that keeps bytes across datagrams glues the
// runt to the next frame and the sender pays a retry timeout.
func TestRuntDatagramCostsNoResend(t *testing.T) {
	n := buildCPNet(t)
	n.runt(t, 1, Port)
	n.runt(t, 0, Port+1)
	if bad, badReplies := n.agents[1].srv.BadCalls, n.agents[0].rpc.BadReplies; bad != 1 || badReplies != 1 {
		t.Fatalf("the runts counted %d bad calls at the peer and %d bad replies at the origin, want 1 and 1", bad, badReplies)
	}
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
	n.eng.Run()
	if n.cp.Stats.RemapsStarted != 1 || n.cp.Stats.RemapDups != 0 {
		t.Fatalf("after first remap: started=%d dups=%d", n.cp.Stats.RemapsStarted, n.cp.Stats.RemapDups)
	}
	sent := n.cp.Stats.InvalidationsSent
	acked := n.cp.Stats.RemapAcksSent

	// Call the identical remap again (what a retransmission whose original
	// reply was lost carries).
	replied := 0
	if err := call(n.agents[0].rpc, procRemap, 0, 1, []int64{11, 12}, func(r sunrpc.Reply, err error) {
		release(r)
		if err == nil && r.Accept == sunrpc.AcceptSuccess {
			replied++
		}
	}); err != nil {
		t.Fatal(err)
	}
	n.eng.Run()
	if replied != 1 {
		t.Fatalf("the duplicate remap was answered %d times, want 1", replied)
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

// TestRequestLoop runs the resend loop of sunrpc's datagram client under each
// of the protocol's two callers, with the first k of its transmissions lost: the request goes out
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
		// path reads the estimator the owner's calls belong to.
		path func(n *cpNet) sim.RTT
		// start issues the request and returns how to read the outcome.
		start func(t *testing.T, n *cpNet) func() loopCounts
	}{
		{"remap chunk", retrySends, "cp.rx", func(n *cpNet) sim.RTT { return n.agents[0].rpc.RTT() }, func(t *testing.T, n *cpNet) func() loopCounts {
			ag := n.agents[0]
			ag.SendRemap([]int64{5, 6, 7})
			return func() loopCounts {
				if ag.round != 0 {
					t.Errorf("the remap is still pending: acked %d, abandoned %d", ag.Stats.RemapsAcked, ag.Stats.RemapsAbandoned)
				}
				if ag.Stats.RemapsAcked+ag.Stats.RemapsAbandoned != 1 {
					t.Errorf("chunk acked %d times and abandoned %d times, want one or the other", ag.Stats.RemapsAcked, ag.Stats.RemapsAbandoned)
				}
				return loopCounts{arrived: n.cp.Stats.RemapsStarted + n.cp.Stats.RemapDups,
					first: ag.Stats.RemapsSent, again: ag.Stats.RemapRetries, abandoned: ag.Stats.RemapsAbandoned}
			}
		}},
		{"invalidation to one peer", retrySends, "srv1.rx", func(n *cpNet) sim.RTT { return n.cp.peers[1].RTT() }, func(t *testing.T, n *cpNet) func() loopCounts {
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
				before := o.path(n)
				observe := o.start(t, n)
				n.eng.Run()
				if n.eng.Pending() != 0 {
					t.Fatalf("%d events still pending after the drain", n.eng.Pending())
				}
				got, path := observe(), o.path(n)
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
					if path == before || path.SRTT <= 0 || path.Backed != 0 {
						t.Errorf("a request sent once left the estimator at %+v (was %+v), want one sample folded in", path, before)
					}
				} else {
					// The wait behind the last send: what the path hands on.
					backed := budget(int(sends)) - budget(int(sends)-1)
					if path.SRTT != before.SRTT || path.RTTVar != before.RTTVar || path.Backed != backed {
						t.Errorf("a request sent %d times left the estimator at %+v (was %+v), want no sample and backed = %v", sends, path, before, backed)
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
			if ag.round == 0 {
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

// TestControlCallLeavesSpanAlone: a remap announced from inside a traced
// request's event — as a flush completion announces one — is control
// traffic, not the request's. With the announcement's first frame lost, so
// that it is resent, the span still spends all its time in the layer it was
// in when it announced, and books no fault.
func TestControlCallLeavesSpanAlone(t *testing.T) {
	const lifetime = 50 * sim.Millisecond
	n := buildCPNet(t)
	n.drop("cp.rx", fault.Schedule{Count: 1})
	tr := trace.NewTracer(n.eng, "cp")
	n.eng.Schedule(0, func() {
		span := tr.Begin("flush")
		span.To(trace.LISCSI)
		n.agents[0].SendRemap([]int64{5, 6, 7})
		n.eng.Schedule(lifetime, span.Finish)
	})
	n.run(t)
	if st := n.agents[0].Stats; st.RemapsAcked != 1 || st.RemapRetries != 1 {
		t.Fatalf("the remap was acked %d times after %d resends, want 1 after 1", st.RemapsAcked, st.RemapRetries)
	}
	ops := tr.Summary().Ops
	if len(ops) != 1 || ops[0].Count != 1 {
		t.Fatalf("summary %+v, want the one span", ops)
	}
	for _, l := range ops[0].Layers {
		want := sim.Duration(0)
		if l.Layer == trace.LISCSI {
			want = lifetime
		}
		if l.Total != want || l.Fault != 0 || l.FaultCount != 0 {
			t.Errorf("layer %v: %v, %v of faults in %d; want %v and none", l.Layer, l.Total, l.Fault, l.FaultCount, want)
		}
	}
}

// TestRemapRoundAllocBudget: with the free lists primed, one remap round with
// two peers — the REMAP call, the INVALIDATE fan-out, both replies and the
// REMAP reply — allocates nothing: call and dispatch records, frames and
// timers are recycled, and both ends decode the block list into a slice they
// keep.
func TestRemapRoundAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	n := buildCPNetOf(t, 3)
	for _, ag := range n.agents {
		ag.SetInvalidate(func([]int64) {})
	}
	lbns := lbnRange(0, 8)
	round := func() {
		n.agents[0].SendRemap(lbns)
		n.run(t)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg > 0 {
		t.Fatalf("one remap round with two peers allocates %.1f objects, budget 0", avg)
	}
	if st := n.agents[0].Stats; st.RemapsAcked != 64+101 || n.cp.Stats.InvalidationsSent != 2*st.RemapsAcked {
		t.Fatalf("%d rounds acked, %d invalidations sent; want %d and twice that", st.RemapsAcked, n.cp.Stats.InvalidationsSent, 64+101)
	}
}
