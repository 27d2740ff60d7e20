package controlplane

import (
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
// agents, and one resolver host.
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
	tServer1    = eth.Addr(0x18)
	tClientAddr = eth.Addr(0x100)
)

// buildCPNet wires the testbed; servers lists the registry's front-end
// servers (an agent comes up on each of the first two).
func buildCPNet(t *testing.T, servers ...eth.Addr) *cpNet {
	t.Helper()
	if len(servers) == 0 {
		servers = []eth.Addr{tServer0, tServer1}
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

	n.invals = make([][]int64, 2)
	for i, addr := range servers[:2] {
		i := i
		node, t := host("srv", addr)
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
	if err := n.cpUDP.Send(tCPAddr, Port, to.local, to.port, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// register runs both agents' registration to completion.
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
	if n.cp.Stats.Registers < 2 {
		t.Fatalf("control plane saw %d registers, want >= 2", n.cp.Stats.Registers)
	}
}

// TestWireRoundTrip: every field of a message survives Encode → decode,
// including an LBN list; a datagram whose length prefix disagrees with its
// size, and a runt, decode to nothing.
func TestWireRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "n", simnet.DefaultProfile())
	in := Msg{
		Type:   MsgRemap,
		Status: 3,
		Server: 1,
		From:   1,
		Addr:   tServer1,
		Epoch:  7,
		Seq:    9,
		FH:     fhOf(0xdeadbeef),
		LBN:    12345,
		LBNs:   []int64{1, 5, 9, 1 << 40},
	}
	ch, err := Encode(node.TxPool, in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	wire := ch.Flatten()
	out, ok := decode(ch)
	if !ok {
		t.Fatal("decode rejected an encoded message")
	}
	if out.Type != in.Type || out.Status != in.Status || out.Server != in.Server ||
		out.From != in.From || out.Addr != in.Addr || out.Epoch != in.Epoch ||
		out.Seq != in.Seq || out.FH != in.FH || out.LBN != in.LBN {
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
}

// TestProtocolUDP exercises register → lookup → remap → invalidate → ack.
func TestProtocolUDP(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)

	// Routing lookups agree with the placement authority, and repeat
	// lookups hit the client-side cache.
	fh := fhOf(42)
	want := n.cp.Registry().ServerFor(fh)
	var gotServer = -2
	n.resolver.Resolve(fh, func(server int, addr eth.Addr, err error) {
		if err != nil {
			t.Errorf("resolve: %v", err)
		}
		if addr != n.cp.Registry().AddrOf(server) {
			t.Errorf("resolve addr %x != registry addr %x", addr, n.cp.Registry().AddrOf(server))
		}
		gotServer = server
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotServer != want {
		t.Fatalf("resolver placed fh on %d, registry says %d", gotServer, want)
	}
	n.resolver.Resolve(fh, func(server int, _ eth.Addr, err error) {
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
	if n.cp.PendingRemaps() != 0 {
		t.Fatalf("%d remaps still pending after drain", n.cp.PendingRemaps())
	}
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
	n.resolver.Resolve(fhOf(42), func(_ int, _ eth.Addr, err error) {
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

// TestFaultBootstrapOutageHeals: a control-plane outage at first use, longer
// than the bootstrap's retry budget, must not cost the client a control-plane
// round trip per cold handle for the rest of the run. The first handle is
// answered per-FH once the outage ends; that response re-enables the
// bootstrap, so the next cold handle fetches the member set and every later
// one is answered locally.
func TestFaultBootstrapOutageHeals(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)
	// Both directions of the control plane's link drop everything from now
	// until half a retry period past the bootstrap's budget.
	in := fault.New(n.eng, 1)
	in.Add(fault.Schedule{
		Class: fault.FrameDrop, Target: "cp*", Rate: 1, Start: n.eng.Now(),
		End: n.eng.Now().Add(DefaultRetryRTO*DefaultRetryMax + DefaultRetryRTO/2),
	})
	n.nw.SetFaults(in)
	in.Arm()

	resolve := func(i uint64) {
		n.resolver.Resolve(fhOf(i), func(server int, _ eth.Addr, err error) {
			if err != nil || server != n.cp.Registry().ServerFor(fhOf(i)) {
				t.Errorf("resolve %d: server=%d err=%v", i, server, err)
			}
		})
		if err := n.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	resolve(0)
	if n.resolver.Stats.MemberFetches != 0 || n.cp.Stats.LookupsFH != 1 {
		t.Fatalf("through the outage: MemberFetches = %d, per-FH lookups served = %d; want 0, 1",
			n.resolver.Stats.MemberFetches, n.cp.Stats.LookupsFH)
	}
	for i := uint64(1); i <= 8; i++ {
		resolve(i)
	}
	if n.resolver.Stats.MemberFetches != 1 {
		t.Fatalf("MemberFetches = %d after the outage healed, want 1", n.resolver.Stats.MemberFetches)
	}
	if n.resolver.Stats.LocalHits != 8 || n.cp.Stats.LookupsFH != 1 {
		t.Fatalf("LocalHits = %d, per-FH lookups served = %d; want 8, 1: cold handles still cost a round trip",
			n.resolver.Stats.LocalHits, n.cp.Stats.LookupsFH)
	}
}

// TestRemapDuplicateIdempotent: redelivering a completed remap (same
// server/epoch/seq triple) must re-ack without a second invalidation round.
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
		Epoch:  n.agents[0].Epoch(),
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
// to the registry — and the control plane never sees a per-FH lookup.
func TestResolverLocalRing(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)
	const handles = 64
	got := make([]int, handles)
	for i := 0; i < handles; i++ {
		i := i
		n.resolver.Resolve(fhOf(uint64(i)), func(server int, addr eth.Addr, err error) {
			if err != nil {
				t.Errorf("resolve %d: %v", i, err)
			}
			if addr != n.cp.Registry().AddrOf(server) {
				t.Errorf("resolve %d: addr %x != registry addr %x", i, addr, n.cp.Registry().AddrOf(server))
			}
			got[i] = server
		})
	}
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := n.cp.Registry().ServerFor(fhOf(uint64(i))); got[i] != want {
			t.Fatalf("handle %d placed on %d, registry says %d", i, got[i], want)
		}
	}
	if n.cp.Stats.LookupsFH != 0 {
		t.Fatalf("control plane served %d per-FH lookups, want 0 (ring replica)", n.cp.Stats.LookupsFH)
	}
	if n.cp.Stats.LookupsMembers != 1 {
		t.Fatalf("control plane served %d member fetches, want 1", n.cp.Stats.LookupsMembers)
	}
	if n.resolver.Stats.LocalHits != handles {
		t.Fatalf("LocalHits = %d, want %d", n.resolver.Stats.LocalHits, handles)
	}
	if n.resolver.Stats.MemberFetches != 1 {
		t.Fatalf("MemberFetches = %d, want 1", n.resolver.Stats.MemberFetches)
	}
}

// TestResolverTooManyMembersFallback: a member set that does not fit one
// message is left out of the response, so the resolver falls back to per-FH
// lookups — and they agree with the registry.
func TestResolverTooManyMembersFallback(t *testing.T) {
	servers := make([]eth.Addr, MaxLBNs+1)
	for i := range servers {
		servers[i] = tServer0 + eth.Addr(8*i)
	}
	n := buildCPNet(t, servers...)
	fh := fhOf(7)
	gotServer := -2
	n.resolver.Resolve(fh, func(server int, _ eth.Addr, err error) {
		if err != nil {
			t.Errorf("resolve: %v", err)
		}
		gotServer = server
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := n.cp.Registry().ServerFor(fh); gotServer != want {
		t.Fatalf("resolver placed fh on %d, registry says %d", gotServer, want)
	}
	if n.cp.Stats.LookupsFH != 1 || n.resolver.Stats.MemberFetches != 1 {
		t.Fatalf("per-FH lookups served = %d, MemberFetches = %d; want 1, 1",
			n.cp.Stats.LookupsFH, n.resolver.Stats.MemberFetches)
	}
	if n.resolver.Stats.LocalHits != 0 {
		t.Fatalf("LocalHits = %d, want 0 without a replica", n.resolver.Stats.LocalHits)
	}
}

// TestResolverInvalidateRefetches: dropping a route after a topology
// change refetches the member set at the new epoch, and the rebuilt
// replica agrees with the shrunken registry.
func TestResolverInvalidateRefetches(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)
	fh := fhOf(3)
	n.resolver.Resolve(fh, func(int, eth.Addr, error) {})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.resolver.Stats.MemberFetches != 1 {
		t.Fatalf("MemberFetches = %d, want 1", n.resolver.Stats.MemberFetches)
	}
	// Topology change: server 1 leaves. The resolver's replica is stale
	// until a misroute (or any newer-epoch response) surfaces it.
	n.cp.Registry().SetActive([]int{0})
	n.resolver.Invalidate(fh)
	gotServer := -2
	n.resolver.Resolve(fh, func(server int, _ eth.Addr, err error) {
		if err != nil {
			t.Errorf("resolve after shrink: %v", err)
		}
		gotServer = server
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotServer != 0 {
		t.Fatalf("post-shrink placement = %d, want 0 (only active member)", gotServer)
	}
	if n.resolver.Stats.MemberFetches != 2 {
		t.Fatalf("MemberFetches = %d, want 2 (refetch at new epoch)", n.resolver.Stats.MemberFetches)
	}
	if n.resolver.Epoch() != n.cp.Registry().Epoch() {
		t.Fatalf("resolver epoch %d != registry epoch %d", n.resolver.Epoch(), n.cp.Registry().Epoch())
	}
}
