package controlplane

import (
	"testing"

	"ncache/internal/proto"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/tcp"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// cpNet is a little control-plane testbed: the CP node serving both
// transports, two front-end agents, and one resolver host.
type cpNet struct {
	eng      *sim.Engine
	cp       *Server
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

// buildCPNet wires the testbed; stream selects TCP (vs UDP) for the agents
// and the resolver.
func buildCPNet(t *testing.T, stream bool) *cpNet {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	n := &cpNet{eng: eng}

	cpNode := simnet.NewNode(eng, "cp", simnet.DefaultProfile())
	if _, err := nw.Attach(cpNode, tCPAddr, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	cpStack := ipv4.NewStack(cpNode)
	n.cp = NewServer(cpNode, []eth.Addr{tServer0, tServer1})
	if err := n.cp.ServeUDP(udp.NewTransport(cpStack)); err != nil {
		t.Fatal(err)
	}
	if err := n.cp.ServeStream(tcp.NewTransport(cpStack)); err != nil {
		t.Fatal(err)
	}

	n.invals = make([][]int64, 2)
	for i, addr := range []eth.Addr{tServer0, tServer1} {
		node := simnet.NewNode(eng, "srv", simnet.DefaultProfile())
		if _, err := nw.Attach(node, addr, simnet.Gbps); err != nil {
			t.Fatal(err)
		}
		stack := ipv4.NewStack(node)
		var dial proto.Dialer
		if stream {
			dial = tcp.NewTransport(stack).DialConn
		} else {
			dial = udp.NewTransport(stack).DialConn
		}
		ag := NewAgent(node, dial, addr, tCPAddr, i)
		i := i
		ag.SetInvalidate(func(lbns []int64) {
			n.invals[i] = append(n.invals[i], lbns...)
		})
		n.agents = append(n.agents, ag)
	}

	clNode := simnet.NewNode(eng, "client", simnet.DefaultProfile())
	if _, err := nw.Attach(clNode, tClientAddr, simnet.Gbps); err != nil {
		t.Fatal(err)
	}
	clStack := ipv4.NewStack(clNode)
	var clDial proto.Dialer
	if stream {
		clDial = tcp.NewTransport(clStack).DialConn
	} else {
		clDial = udp.NewTransport(clStack).DialConn
	}
	n.resolver = NewResolver(clNode, clDial, tClientAddr, tCPAddr)
	return n
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

// TestWireRoundTrip: every field of a message survives Encode → Framer,
// including a chunked LBN list, over a reassembly split mid-frame.
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
	var got []Msg
	f := NewFramer(func(m Msg) { got = append(got, m) })
	f.Push(ch)
	if len(got) != 1 {
		t.Fatalf("framer produced %d messages, want 1", len(got))
	}
	out := got[0]
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
}

// runProtocol exercises register → lookup → remap → invalidate → ack over
// one transport.
func runProtocol(t *testing.T, stream bool) {
	n := buildCPNet(t, stream)
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

func TestProtocolUDP(t *testing.T) { runProtocol(t, false) }
func TestProtocolTCP(t *testing.T) { runProtocol(t, true) }

// TestRemapDuplicateIdempotent: redelivering a completed remap (same
// server/epoch/seq triple) must re-ack without a second invalidation round.
func TestRemapDuplicateIdempotent(t *testing.T) {
	n := buildCPNet(t, false)
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
	}, func(Msg) {})
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
	n := buildCPNet(t, false)
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

// TestResolverOverridesFallback: a registry with placement overrides marks
// its member-set response non-authoritative, so the resolver falls back to
// per-FH lookups — and the override is honored.
func TestResolverOverridesFallback(t *testing.T) {
	n := buildCPNet(t, false)
	n.register(t)
	fh := fhOf(7)
	pinned := 1 - n.cp.Registry().ServerFor(fh) // force the non-hash answer
	n.cp.Registry().Pin(fh, pinned)
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
	if gotServer != pinned {
		t.Fatalf("resolver placed pinned fh on %d, want %d", gotServer, pinned)
	}
	if n.cp.Stats.LookupsFH == 0 {
		t.Fatal("resolver answered an overridden placement locally")
	}
	if n.resolver.Stats.LocalHits != 0 {
		t.Fatalf("LocalHits = %d, want 0 under overrides", n.resolver.Stats.LocalHits)
	}
}

// TestResolverInvalidateRefetches: dropping a route after a topology
// change refetches the member set at the new epoch, and the rebuilt
// replica agrees with the shrunken registry.
func TestResolverInvalidateRefetches(t *testing.T) {
	n := buildCPNet(t, false)
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
