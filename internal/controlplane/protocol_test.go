package controlplane

import (
	"fmt"
	"slices"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// cpNet is a little control-plane testbed: the CP node, two front-end
// agents (buildCPNetOf builds more), and one resolver host.
type cpNet struct {
	eng      *sim.Engine
	nw       *simnet.Network
	cp       *Server
	cpUDP    *udp.Transport
	agents   []*Agent
	invals   [][]int64 // per-agent invalidated LBNs
	resolver *Resolver
}

const (
	tCPAddr     = eth.Addr(1)
	tServer0    = eth.Addr(0x10)
	tClientAddr = eth.Addr(0x100)
)

// buildCPNet wires the testbed with two servers.
func buildCPNet(t *testing.T) *cpNet { return buildCPNetOf(t, 2) }

// buildCPNetOf wires the testbed. The agents' nodes are srv0, srv1, …, so a
// fault schedule can pick one server's link.
func buildCPNetOf(t *testing.T, numServers int) *cpNet {
	t.Helper()
	servers := make([]eth.Addr, numServers)
	for i := range servers {
		servers[i] = tServer0 + eth.Addr(8*i)
	}
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	n := &cpNet{eng: eng, nw: nw}
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
		node, t := host(fmt.Sprintf("srv%d", i), addr)
		ag := NewAgent(node, t, addr, tCPAddr, i)
		ag.SetInvalidate(func(lbns []int64) {
			n.invals[i] = append(n.invals[i], lbns...)
		})
		n.agents = append(n.agents, ag)
	}

	clNode, clUDP := host("client", tClientAddr)
	n.resolver = NewResolver(clNode, clUDP, tClientAddr, tCPAddr)
	return n
}

// runt sends a 3-byte datagram from the control plane's service port to an
// endpoint and lets it land.
func (n *cpNet) runt(t *testing.T, to *endpoint) {
	t.Helper()
	if err := n.cpUDP.SendChain(tCPAddr, Port, to.local, to.port, netbuf.ChainFromBytes([]byte{1, 2, 3}, netbuf.DefaultBufSize)); err != nil {
		t.Fatal(err)
	}
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// register runs every agent's registration to completion.
func (n *cpNet) register(t *testing.T) {
	t.Helper()
	for i, ag := range n.agents {
		i := i
		ag.Register(func(err error) {
			if err != nil {
				t.Errorf("agent %d register: %v", i, err)
			}
		})
	}
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if int(n.cp.Stats.Registers) < len(n.agents) {
		t.Fatalf("control plane saw %d registers, want >= %d", n.cp.Stats.Registers, len(n.agents))
	}
}

// inject replaces the network's fault schedules with scheds, armed, and
// returns the injector: its report counts the injections, Quiesce lifts them.
func (n *cpNet) inject(scheds ...fault.Schedule) *fault.Injector {
	in := fault.New(n.eng, 1)
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
// no chunk or queue entry is left behind.
func (n *cpNet) checkDrained(t *testing.T) {
	t.Helper()
	for i, ag := range n.agents {
		st := ag.Stats
		if st.LBNsQueued != st.LBNsAnnounced+st.LBNsAbandoned || len(ag.queue) != 0 || len(ag.pending) != 0 {
			t.Errorf("agent %d: %d LBNs queued, %d announced, %d abandoned; %d still queued, %d chunks in flight",
				i, st.LBNsQueued, st.LBNsAnnounced, st.LBNsAbandoned, len(ag.queue), len(ag.pending))
		}
	}
	if got := n.cp.PendingRemaps(); got != 0 {
		t.Errorf("%d remaps still pending at the control plane", got)
	}
}

// TestWireRoundTrip: every field of a message survives Encode → decode,
// including an LBN list; the header is 48 bytes with every retired field
// (bytes 6–19 and 28–35) encoded as zero; a datagram whose length prefix
// disagrees with its size, and a runt, decode to nothing; and a well-formed
// datagram of a retired type (3 and 4, the per-handle lookup) is one protocol
// error at the server and nothing else.
func TestWireRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "n", simnet.DefaultProfile())
	in := Msg{
		Type:   MsgRemap,
		Server: 1,
		From:   1,
		Seq:    9,
		LBN:    12345,
		LBNs:   []int64{1, 5, 9, 1 << 40},
	}
	ch, err := Encode(node.TxPool, in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	wire := ch.Flatten()
	if len(wire) != frameLenBytes+48+8*len(in.LBNs) {
		t.Fatalf("a %d-LBN message encodes to %d bytes: the header is no longer 48", len(in.LBNs), len(wire))
	}
	hdr := wire[frameLenBytes:]
	for _, zero := range [][2]int{{1, 2}, {6, 20}, {28, 36}} {
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
	if out.Type != in.Type || out.Server != in.Server || out.From != in.From ||
		out.Seq != in.Seq || out.LBN != in.LBN {
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
	codes := []MsgType{MsgRegister, MsgRegisterAck, MsgRemap, MsgRemapAck, MsgInvalidate, MsgInvalidateAck, MsgMembers, MsgMembersResp}
	if want := []MsgType{1, 2, 5, 6, 7, 8, 9, 10}; !slices.Equal(codes, want) {
		t.Fatalf("message codes = %v, want %v: a surviving type code moved", codes, want)
	}

	n := buildCPNet(t)
	n.register(t)
	for _, retired := range []MsgType{3, 4} {
		before, agent := n.cp.Stats, n.agents[0].Stats
		if err := n.resolver.ep.send(Msg{Type: retired, Seq: 1}); err != nil {
			t.Fatal(err)
		}
		if err := n.eng.Run(); err != nil {
			t.Fatal(err)
		}
		before.Errors++
		if n.cp.Stats != before {
			t.Fatalf("type %d: server stats %+v, want %+v (one error, nothing else)", retired, n.cp.Stats, before)
		}
		if n.resolver.Stats != (ResolverStats{}) || n.agents[0].Stats != agent {
			t.Fatalf("type %d was answered: resolver %+v, agent %+v", retired, n.resolver.Stats, n.agents[0].Stats)
		}
	}
}

// TestProtocolUDP exercises register → lookup → remap → invalidate → ack.
func TestProtocolUDP(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)

	// Routing lookups agree with the placement authority, and repeat
	// lookups hit the client-side cache.
	fh := fhOf(42)
	want := n.cp.reg.ring.LookupFH(fh)
	var gotServer = -2
	n.resolver.Resolve(fh, func(server int, err error) {
		if err != nil {
			t.Errorf("resolve: %v", err)
		}
		gotServer = server
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotServer != want {
		t.Fatalf("resolver placed fh on %d, registry says %d", gotServer, want)
	}
	n.resolver.Resolve(fh, func(server int, err error) {
		if err != nil || server != want {
			t.Errorf("cached resolve: server=%d err=%v", server, err)
		}
	})
	if n.resolver.Stats.CacheHits != 1 {
		t.Fatalf("second resolve missed the route cache (hits=%d)", n.resolver.Stats.CacheHits)
	}

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
// transmission, at an agent (MsgInvalidate) and at a resolver
// (MsgMembersResp). A receive path that keeps bytes across datagrams glues
// the runt to the next frame and the sender pays a retry timeout.
func TestRuntDatagramCostsNoResend(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)

	n.runt(t, n.agents[1].ep)
	n.agents[0].SendRemap([]int64{5, 6, 7})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.invals[1]; len(got) != 3 {
		t.Fatalf("peer invalidations = %v, want [5 6 7]", got)
	}
	if n.cp.Stats.InvalidationResends != 0 {
		t.Fatalf("InvalidationResends = %d, want 0: the runt cost the next invalidation a retry",
			n.cp.Stats.InvalidationResends)
	}

	n.runt(t, n.resolver.ep)
	n.resolver.Resolve(fhOf(42), func(_ int, err error) {
		if err != nil {
			t.Errorf("resolve: %v", err)
		}
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.resolver.Stats.MemberFetches != 1 || n.resolver.Stats.Retries != 0 {
		t.Fatalf("MemberFetches = %d, Retries = %d; want 1, 0: the runt cost the member-set response a retry",
			n.resolver.Stats.MemberFetches, n.resolver.Stats.Retries)
	}
}

// TestFaultBootstrapOutageHeals: a control-plane outage at first use costs
// the client errors only while it lasts. An outage inside the member-set
// fetch's budget costs nothing but time: the handle asked for resolves, and
// every later cold handle is answered locally. One past the budget fails each
// lookup parked behind the fetch exactly once, and the first Resolve after it
// fetches afresh — there is no degraded mode to heal from. The budget is 12
// sends whose waits double from the floor to the cap: the last leaves at
// 1,270 ms and is given up on at 1,430 ms, the figures DESIGN §10 states.
func TestFaultBootstrapOutageHeals(t *testing.T) {
	const sends = 2 * DefaultRetryMax
	lastSend, giveUp := budget(sends-1), budget(sends)
	if lastSend != 1270*sim.Millisecond || giveUp != 1430*sim.Millisecond {
		t.Fatalf("a member-set fetch's last send leaves at %v and is given up on at %v; DESIGN §10 says 1.27 s and 1.43 s", lastSend, giveUp)
	}
	// outage drops everything on both directions of the control plane's
	// link from now until d has passed.
	outage := func(n *cpNet, d sim.Duration) {
		n.drop("cp*", fault.Schedule{Start: n.eng.Now(), End: n.eng.Now().Add(d)})
	}
	resolve := func(t *testing.T, n *cpNet, i uint64) {
		n.resolver.Resolve(fhOf(i), func(server int, err error) {
			if err != nil || server != n.cp.reg.ring.LookupFH(fhOf(i)) {
				t.Errorf("resolve %d: server=%d err=%v", i, server, err)
			}
		})
		n.run(t)
	}
	coldHandlesAreLocal := func(t *testing.T, n *cpNet) {
		for i := uint64(1); i <= 8; i++ {
			resolve(t, n, i)
		}
		if n.resolver.Stats.MemberFetches != 1 || n.resolver.Stats.LocalHits != 9 || n.cp.Stats.LookupsMembers != 1 {
			t.Fatalf("MemberFetches = %d, LocalHits = %d, member sets served = %d; want 1, 9, 1: cold handles still cost a round trip",
				n.resolver.Stats.MemberFetches, n.resolver.Stats.LocalHits, n.cp.Stats.LookupsMembers)
		}
	}

	t.Run("within the budget", func(t *testing.T) {
		// The longest outage that costs nothing: it ends just before the
		// last send leaves.
		longest := lastSend - DefaultRetryRTO/2
		n := buildCPNet(t)
		n.register(t)
		outage(n, longest)
		resolve(t, n, 0)
		if n.resolver.Stats.MemberFetches != 1 || n.resolver.Stats.Retries != sends-1 || n.resolver.Stats.Failures != 0 {
			t.Fatalf("through a %v outage: MemberFetches = %d, Retries = %d, Failures = %d; want 1, %d, 0", longest,
				n.resolver.Stats.MemberFetches, n.resolver.Stats.Retries, n.resolver.Stats.Failures, sends-1)
		}
		coldHandlesAreLocal(t, n)
	})

	t.Run("past the budget", func(t *testing.T) {
		n := buildCPNet(t)
		n.register(t)
		outage(n, giveUp+DefaultRetryRTO/2)
		start := n.eng.Now()
		const parked = 3
		var failed [parked]int
		for i := range failed {
			i := i
			n.resolver.Resolve(fhOf(uint64(100+i)), func(server int, err error) {
				if err == nil || server != -1 {
					t.Errorf("parked lookup %d: server=%d err=%v, want a failure", i, server, err)
				}
				if got := n.eng.Now().Sub(start); got != giveUp {
					t.Errorf("parked lookup %d failed after %v, want %v", i, got, giveUp)
				}
				failed[i]++
			})
		}
		n.run(t)
		if failed != [parked]int{1, 1, 1} || n.resolver.Stats.Failures != parked {
			t.Fatalf("parked lookups failed %v times, Failures = %d; want once each, %d", failed, n.resolver.Stats.Failures, parked)
		}
		if n.resolver.Stats.Retries != sends-1 || n.resolver.Stats.MemberFetches != 0 {
			t.Fatalf("Retries = %d, MemberFetches = %d; want %d, 0", n.resolver.Stats.Retries, n.resolver.Stats.MemberFetches, sends-1)
		}
		t.Logf("outage past the budget: %d parked lookups failed once each at +%v; Retries = %d",
			parked, giveUp, n.resolver.Stats.Retries)
		// Half a floor interval later the outage is over: the very next
		// Resolve fetches the member set, first try.
		n.runFor(t, DefaultRetryRTO)
		retries := n.resolver.Stats.Retries
		resolve(t, n, 0)
		if n.resolver.Stats.Retries != retries || n.resolver.Stats.Failures != parked {
			t.Fatalf("after the heal: Retries %d → %d, Failures = %d; want no retry and no new failure",
				retries, n.resolver.Stats.Retries, n.resolver.Stats.Failures)
		}
		coldHandlesAreLocal(t, n)
		t.Logf("after the heal: the first Resolve fetched the member set (MemberFetches = %d, no retry); it and 8 more cold handles were answered by the replica (LocalHits = %d)",
			n.resolver.Stats.MemberFetches, n.resolver.Stats.LocalHits)
	})
}

// TestRemapDuplicateIdempotent: redelivering a completed remap (same
// server/seq pair) must re-ack without a second invalidation round.
func TestRemapDuplicateIdempotent(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)
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
	// ack was lost). The re-ack rides the origin's registered route, not
	// the request's reply path.
	n.cp.dispatch(Msg{
		Type:   MsgRemap,
		Server: 0,
		Seq:    1,
		LBNs:   []int64{11, 12},
	}, peer{})
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

// TestResolverLocalRing: after one member-set bootstrap the resolver
// answers every cold lookup from its local ring replica — bit-identically
// to the registry — and the control plane hears from the client once.
func TestResolverLocalRing(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)
	const handles = 64
	got := make([]int, handles)
	for i := 0; i < handles; i++ {
		i := i
		n.resolver.Resolve(fhOf(uint64(i)), func(server int, err error) {
			if err != nil {
				t.Errorf("resolve %d: %v", i, err)
			}
			got[i] = server
		})
	}
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := n.cp.reg.ring.LookupFH(fhOf(uint64(i))); got[i] != want {
			t.Fatalf("handle %d placed on %d, registry says %d", i, got[i], want)
		}
	}
	if n.cp.Stats.LookupsMembers != 1 || n.cp.Stats.Errors != 0 {
		t.Fatalf("control plane served %d member fetches and counted %d errors, want 1 and 0",
			n.cp.Stats.LookupsMembers, n.cp.Stats.Errors)
	}
	if n.resolver.Stats.LocalHits != handles {
		t.Fatalf("LocalHits = %d, want %d", n.resolver.Stats.LocalHits, handles)
	}
	if n.resolver.Stats.MemberFetches != 1 {
		t.Fatalf("MemberFetches = %d, want 1", n.resolver.Stats.MemberFetches)
	}
}

// loopCounts is what became of one request, read off the testbed once the
// engine has drained.
type loopCounts struct {
	// arrived counts the transmissions that reached their receiver.
	arrived uint64
	// first and again are the owner's own send counters; a registration
	// keeps none.
	first, again uint64
	uncounted    bool
	// abandoned counts how often abandon's effect happened.
	abandoned uint64
}

// TestRequestLoop runs the protocol's one resend loop under each of its four
// owners, with the first k of its transmissions lost: the request goes out
// min(k+1, max) times, the owner counts one first send and the rest as
// resends, giving up happens once and only when all max were lost, and the
// loop leaves no timer behind. The path's estimator takes a sample only from
// the request that was sent once (Karn): one that was resent leaves srtt and
// rttvar alone and hands its wait — doubled per resend from the floor, up to
// the cap — to whoever uses the path next.
func TestRequestLoop(t *testing.T) {
	agentPath := func(n *cpNet) *sim.RTT { return &n.agents[0].path }
	owners := []struct {
		name string
		max  int
		// lossSite is the fault site the owner's transmissions cross.
		lossSite string
		// path is the estimator the owner's requests belong to.
		path func(n *cpNet) *sim.RTT
		// start issues the request (on registered agents, unless the request
		// is the registration) and returns how to read the outcome.
		start func(t *testing.T, n *cpNet) func() loopCounts
	}{
		{"registration", 4 * DefaultRetryMax, "cp.rx", agentPath, func(t *testing.T, n *cpNet) func() loopCounts {
			var calls, failed uint64
			n.agents[0].Register(func(err error) {
				calls++
				if err != nil {
					failed++
				}
			})
			return func() loopCounts {
				if calls != 1 {
					t.Errorf("Register's callback fired %d times, want 1", calls)
				}
				return loopCounts{arrived: n.cp.Stats.Registers, uncounted: true, abandoned: failed}
			}
		}},
		{"remap chunk", DefaultRetryMax, "cp.rx", agentPath, func(t *testing.T, n *cpNet) func() loopCounts {
			ag := n.agents[0]
			ag.SendRemap([]int64{5, 6, 7})
			return func() loopCounts {
				if got := len(ag.pending); got != 0 {
					t.Errorf("%d remap chunks still pending: acked %d, abandoned %d", got, ag.Stats.RemapsAcked, ag.Stats.RemapsAbandoned)
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
		{"member-set fetch", 2 * DefaultRetryMax, "cp.rx", func(n *cpNet) *sim.RTT { return &n.resolver.path }, func(t *testing.T, n *cpNet) func() loopCounts {
			var calls uint64
			n.resolver.Resolve(fhOf(42), func(server int, err error) {
				calls++
				if (err == nil) != (server == n.cp.reg.ring.LookupFH(fhOf(42))) {
					t.Errorf("resolve: server=%d err=%v", server, err)
				}
			})
			return func() loopCounts {
				if calls != 1 {
					t.Errorf("Resolve's callback fired %d times, want 1", calls)
				}
				return loopCounts{arrived: n.cp.Stats.LookupsMembers,
					first: 1, again: n.resolver.Stats.Retries, abandoned: n.resolver.Stats.Failures}
			}
		}},
	}
	for _, o := range owners {
		for _, k := range []int{0, 1, o.max - 1, o.max} {
			o, k := o, k
			t.Run(fmt.Sprintf("%s/lose %d of %d", o.name, k, o.max), func(t *testing.T) {
				n := buildCPNet(t)
				if o.name != "registration" {
					n.register(t)
				}
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
				if !got.uncounted && (got.first != 1 || got.again != sends-1) {
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
