package ipv4

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// quietRun is what one run of quietRig observed at the receiver.
type quietRun struct {
	deliveries []string // NIC, instant and receive CPU finish of every frame
	upcalls    []string // instant, request context and size of every datagram
	jobs       []sim.Time
	busy       []sim.Duration // the CPU's, read mid-run and after
	net        []metrics.Net  // NetTotals, read mid-run and after
	events     uint64
	frames     uint64 // frames the senders put on the wire
}

// quietSend is one datagram of a rig: from sender to the receiver's NIC
// dst, at an instant, in a request context of its own.
type quietSend struct {
	from int
	dst  eth.Addr
	at   sim.Time
	size int
}

// quietRig runs sends from two one-NIC senders to a receiver with nics NICs
// (addresses 100, 101, ...), whose CPU also serves a 1.5 µs job every 4 µs,
// each job's end an event. With forced set, a rate-0 frame-drop schedule
// names every site: it never fires, but every frame then departs, reaches
// the egress and is delivered in an event of its own, as before quiet
// frames. Busy and NetTotals are read at 143 µs, 155.5 µs and after the run.
func quietRig(t *testing.T, forced bool, nics int, sends []quietSend) quietRun {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 2*sim.Microsecond)
	r := simnet.NewNode(eng, "r", simnet.DefaultProfile())
	for i := 0; i < nics; i++ {
		if _, err := nw.Attach(r, eth.Addr(100+i), simnet.Gbps); err != nil {
			t.Fatal(err)
		}
	}
	var senders []*Stack
	for i := 0; i < 2; i++ {
		n := simnet.NewNode(eng, fmt.Sprintf("s%d", i), simnet.DefaultProfile())
		if _, err := nw.Attach(n, eth.Addr(1+i), simnet.Gbps); err != nil {
			t.Fatal(err)
		}
		senders = append(senders, NewStack(n))
	}
	rs := NewStack(r)
	if forced {
		in := fault.New(eng, 1)
		in.Add(fault.Schedule{Class: fault.FrameDrop, Target: "*", Rate: 0})
		nw.SetFaults(in)
		in.Arm()
	}
	var x quietRun
	for _, nic := range r.NICs() {
		nic.SetRxHandler(func(f *netbuf.Chain, at sim.Time, quiet bool) {
			x.deliveries = append(x.deliveries, fmt.Sprintf("%s@%d", nic.Addr, at))
			rs.rx(f, at, quiet)
		})
	}
	rs.Register(99, func(src, _ eth.Addr, p *netbuf.Chain) {
		x.upcalls = append(x.upcalls, fmt.Sprintf("%s@%d ctx %v: %d B", src, eng.Now(), eng.Context(), p.Len()))
		p.Release()
	})
	var tick func()
	tick = func() {
		r.CPU.Use(1500, func() { x.jobs = append(x.jobs, eng.Now()) })
		if len(x.jobs) < 60 {
			eng.Schedule(4*sim.Microsecond, tick)
		}
	}
	eng.At(0, tick)
	for i, s := range sends {
		eng.At(s.at, func() {
			eng.SetContext(i + 1)
			st := senders[s.from]
			src := eth.Addr(1 + s.from)
			if err := st.Send(src, s.dst, 99, st.Node().TxPool.GetChain(make([]byte, s.size))); err != nil {
				t.Error(err)
			}
		})
	}
	// Each checkpoint follows a quiet frame's delivery and precedes the
	// CPU's next job, and each read comes first once, so that it alone
	// hands over that frame.
	for _, at := range []sim.Duration{143 * sim.Microsecond, 155500, -1} {
		if at > 0 {
			eng.RunUntil(sim.Time(at))
		} else {
			eng.Run()
		}
		if at == 143*sim.Microsecond {
			x.net = append(x.net, r.NetTotals())
			x.busy = append(x.busy, r.CPU.Busy())
		} else {
			x.busy = append(x.busy, r.CPU.Busy())
			x.net = append(x.net, r.NetTotals())
		}
	}
	x.events = eng.Processed()
	for _, st := range senders {
		x.frames += st.node.NetTotals().PacketsTx
	}
	if len(rs.reasm) != 0 {
		t.Errorf("forced %v: %d reassemblies held after the run", forced, len(rs.reasm))
	}
	return x
}

// TestQuietFragmentsMatchPerFrameEvents: fragments that cross the switch
// quiet, with no event of their own, reach the receiver exactly as the
// per-frame path delivers them — every frame at the same instant, in the
// same order across the node's NICs and around the CPU's other jobs, every
// upcall at the same instant in the same request context, the same CPU
// busy time and wire counters mid-run and at the end. Only the events
// differ: the forced run spends a departure and an arrival event per frame
// at its named sites, and a delivery event per non-final fragment.
func TestQuietFragmentsMatchPerFrameEvents(t *testing.T) {
	for _, c := range []struct {
		name    string
		nics    int
		sends   []quietSend
		nonLast uint64
	}{
		// Two trains interleave into one downlink, and a third, shorter one
		// from the first sender queues behind its own first train.
		{"one port", 1, []quietSend{{0, 100, 0, 20000}, {1, 100, 1000, 20000}, {0, 100, 30000, 5000}}, 13 + 13 + 3},
		// Each of the receiver's NICs takes a train.
		{"two NICs", 2, []quietSend{{0, 100, 0, 20000}, {1, 101, 3000, 20000}, {1, 101, 9000, 1000}}, 13 + 13},
	} {
		quiet, forced := quietRig(t, false, c.nics, c.sends), quietRig(t, true, c.nics, c.sends)
		if len(quiet.upcalls) != len(c.sends) {
			t.Fatalf("%s: %d upcalls, want %d: %v", c.name, len(quiet.upcalls), len(c.sends), quiet.upcalls)
		}
		for _, f := range []struct {
			what        string
			quiet, each any
		}{
			{"deliveries", quiet.deliveries, forced.deliveries},
			{"upcalls", quiet.upcalls, forced.upcalls},
			{"CPU jobs", quiet.jobs, forced.jobs},
			{"CPU busy", quiet.busy, forced.busy},
			{"NetTotals", quiet.net, forced.net},
		} {
			if !reflect.DeepEqual(f.quiet, f.each) {
				t.Errorf("%s: %s quiet %v, per frame %v", c.name, f.what, f.quiet, f.each)

			}
		}
		if quiet.frames != forced.frames || forced.events-quiet.events != 2*quiet.frames+c.nonLast {
			t.Errorf("%s: %d events quiet, %d per frame, for %d frames; want %d more per frame",
				c.name, quiet.events, forced.events, quiet.frames, 2*quiet.frames+c.nonLast)
		}
	}
}

// TestQuietTrainDrains: when Run returns, no reassembly is held, every
// frame launched was received and every buffer is home — also for a
// datagram whose last fragment fails to launch (oversize here), whose other
// fragments must then cross loud, so that the reassembly they start expires
// instead of waiting for a tail that never left.
func TestQuietTrainDrains(t *testing.T) {
	eng, sa, sb := stackPair(t)
	var got [][]byte
	sb.Register(99, func(_, _ eth.Addr, p *netbuf.Chain) {
		got = append(got, p.Flatten())
		p.Release()
	})
	whole := bytes.Repeat([]byte{9}, 20000)
	if err := sa.Send(1, 2, 99, sa.Node().TxPool.GetChain(whole)); err != nil {
		t.Fatal(err)
	}
	const size = 4000
	train := []*netbuf.Chain{fragment(t, sa.Node().TxPool, 1, size, 0), fragment(t, sa.Node().TxPool, 1, size, 1480), fragment(t, sa.Node().TxPool, 1, size, 2960)}
	train[2].AppendChain(sa.Node().TxPool.GetChain(make([]byte, 1500)))
	sa.nics[1].ChargeSendTrain(sa.node.Cost.PktTxNs, train)
	eng.Run()
	if len(got) != 1 || !bytes.Equal(got[0], whole) {
		t.Errorf("%d datagrams delivered, want the whole 20,000-byte one alone", len(got))
	}
	if len(sb.reasm) != 0 || sb.ReasmDropped != 1 {
		t.Errorf("%d reassemblies held, %d dropped; want 0, 1 (the datagram whose tail never left)",
			len(sb.reasm), sb.ReasmDropped)
	}
	tx, rx := sa.Node().NetTotals().PacketsTx, sb.Node().NetTotals().PacketsRx
	if tx != 2+14 || rx != tx {
		t.Errorf("%d frames launched, %d received; want 16, 16", tx, rx)
	}
	for _, st := range []*Stack{sa, sb} {
		for _, p := range st.Node().Pools() {
			p.MustBeDrained()
		}
	}
}
