package tcp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// nameSites names the sites target matches in a rate-0 frame-drop
// schedule: it never fires, but a frame from or to a named site departs or
// reaches the egress in an event of its own, and crosses loud.
func nameSites(eng *sim.Engine, nw *simnet.Network, target string) {
	in := fault.New(eng, 1)
	in.Add(fault.Schedule{Class: fault.FrameDrop, Target: target, Rate: 0})
	nw.SetFaults(in)
	in.Arm()
}

// tap records every segment h's TCP layer takes in, loud or quiet, by its
// upcall instant, as its sequence and ack numbers, flags and length, and
// counts the quiet ones.
func tap(h *host, eng *sim.Engine, segs map[sim.Time]string, quiet *int) {
	note := func(p *netbuf.Chain, at sim.Time) {
		raw := p.Flatten()
		if _, dup := segs[at]; dup {
			panic(fmt.Sprintf("two upcalls at %v on %s", at, h.addr))
		}
		segs[at] = fmt.Sprintf("seq %d ack %d flags %#x len %d", binary.BigEndian.Uint32(raw[4:8]),
			binary.BigEndian.Uint32(raw[8:12]), raw[12], len(raw)-HeaderLen)
	}
	h.ip.Register(ipv4.ProtoTCP, func(src, dst eth.Addr, p *netbuf.Chain) {
		note(p, eng.Now())
		h.tcp.receive(src, dst, p)
	})
	h.ip.RegisterQuiet(ipv4.ProtoTCP, func(src, dst eth.Addr, p *netbuf.Chain, up sim.Key) {
		note(p, up.At)
		*quiet++
		h.tcp.receiveQuiet(src, dst, p, up)
	})
}

// segRun is what one run of quietStream observed.
type segRun struct {
	segs     [2]map[sim.Time]string // a's and b's
	quiet    int
	got      []byte // the stream a→b
	back     int    // bytes b→a
	busy     []sim.Duration
	net      []metrics.Net
	events   uint64
	frames   uint64
	counters [2]Transport
}

// quietStream runs a bulk transfer a→b whose messages end on odd and on even
// segment counts, in three trains, while b's CPU serves a 1.5 µs job every
// 4 µs and b sends a 64-byte message on the same connection every 5 µs: some
// of those go out between a quiet segment's delivery and its upcall, and
// some between its upcall and the next segment's. With forced set, no
// segment crosses quiet. Both hosts' Busy and NetTotals are read at three
// instants mid-run and after it.
func quietStream(t *testing.T, forced bool) segRun {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	a, b := hostsOn(t, eng, nw, simnet.Gbps)
	if forced {
		nameSites(eng, nw, "*")
	}
	x := segRun{segs: [2]map[sim.Time]string{{}, {}}}
	tap(a, eng, x.segs[0], &x.quiet)
	tap(b, eng, x.segs[1], &x.quiet)
	var got bytes.Buffer
	var server *Conn
	if err := b.tcp.Listen(80, func(c *Conn) {
		server = c
		c.SetReceiver(func(data *netbuf.Chain) {
			got.Write(data.Flatten())
			data.Release()
		})
	}); err != nil {
		t.Fatal(err)
	}
	mss := a.tcp.mss()
	// 12, 11, 2 and 1 segments, then 5 and 8, then 3 and 7 and 6.
	trains := [][]int{{12 * mss, 11*mss - 100, mss + 1, 40}, {5 * mss, 7*mss + 9}, {3 * mss, 7 * mss, 6*mss - 1}}
	want := lossPayload()
	sent := 0
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.SetReceiver(func(data *netbuf.Chain) {
			x.back += data.Len()
			data.Release()
		})
		for i, sizes := range trains {
			eng.Schedule(sim.Duration(i)*150*sim.Microsecond, func() {
				for _, n := range sizes {
					if err := c.Send(want[sent : sent+n]); err != nil {
						t.Errorf("Send: %v", err)
					}
					sent += n
				}
			})
		}
	})
	var tick func()
	jobs := 0
	tick = func() {
		b.node.CPU.Use(1500, func() { jobs++ })
		if jobs < 120 {
			eng.Schedule(4*sim.Microsecond, tick)
		}
	}
	eng.At(sim.Time(50*sim.Microsecond), tick)
	for i := 0; i < 100; i++ {
		eng.At(sim.Time(60+5*i)*sim.Time(sim.Microsecond), func() {
			if err := server.Send(make([]byte, 64)); err != nil {
				t.Errorf("reply: %v", err)
			}
		})
	}
	// Mid-run, the receive side of the wire counters: a NIC counts a frame
	// sent when it is charged, but at a named site when it departs.
	read := func(end bool) {
		for _, h := range []*host{a, b} {
			n := h.node.NetTotals()
			if !end {
				n = metrics.Net{PacketsRx: n.PacketsRx, BytesRx: n.BytesRx}
			}
			x.busy, x.net = append(x.busy, h.node.CPU.Busy()), append(x.net, n)
		}
	}
	for _, at := range []sim.Time{123456, 201000, 377777} {
		eng.At(at, func() { read(false) })
	}
	eng.Run()
	read(true)
	x.got, x.events = got.Bytes(), eng.Processed()
	x.frames = a.node.NetTotals().PacketsTx + b.node.NetTotals().PacketsTx
	for i, h := range []*host{a, b} {
		x.counters[i] = *h.tcp
		x.counters[i].ip, x.counters[i].node, x.counters[i].listeners, x.counters[i].conns, x.counters[i].train = nil, nil, nil, nil, nil
	}
	if !bytes.Equal(x.got, want[:sent]) || x.back != 100*64 {
		t.Fatalf("forced %v: %d of %d bytes intact a→b, %d of %d b→a", forced, len(x.got), sent, x.back, 100*64)
	}
	checkHostsDrained(t, a, b)
	return x
}

// TestQuietSegmentsMatchPerFrameEvents: a stream whose segments cross quiet
// where they can runs exactly as one where none does. Every segment either
// host takes in carries the same sequence and ack numbers and flags and has
// its upcall at the same instant; the same bytes arrive both ways; both
// hosts' CPU busy time and wire counters agree whenever read, and so do the
// TCP counters. The quiet run saves two events per quiet segment, its
// departure and its upcall; the forced run spends two more per frame, at
// its named sites.
func TestQuietSegmentsMatchPerFrameEvents(t *testing.T) {
	quiet, forced := quietStream(t, false), quietStream(t, true)
	if forced.quiet != 0 || quiet.quiet == 0 {
		t.Fatalf("%d segments quiet, %d forced; want some and none", quiet.quiet, forced.quiet)
	}
	for i, segs := range quiet.segs {
		if len(segs) != len(forced.segs[i]) {
			t.Fatalf("host %d took in %d segments quiet, %d forced", i, len(segs), len(forced.segs[i]))
		}
		for at, s := range segs {
			if f := forced.segs[i][at]; s != f {
				t.Fatalf("host %d's upcall at %v: %s quiet, %q forced", i, at, s, f)
			}
		}
	}
	if !reflect.DeepEqual(quiet.busy, forced.busy) || !reflect.DeepEqual(quiet.net, forced.net) {
		t.Errorf("CPU busy %v and wire counters %v quiet, %v and %v forced", quiet.busy, quiet.net, forced.busy, forced.net)
	}
	if !reflect.DeepEqual(quiet.counters, forced.counters) {
		t.Errorf("TCP counters %+v quiet, %+v forced", quiet.counters, forced.counters)
	}
	t.Logf("%d segments, %d quiet, %d frames: %d events quiet, %d forced",
		len(quiet.segs[0])+len(quiet.segs[1]), quiet.quiet, quiet.frames, quiet.events, forced.events)
	if quiet.frames != forced.frames || forced.events-quiet.events != 2*forced.frames+2*uint64(quiet.quiet) {
		t.Errorf("%d events quiet, %d forced, for %d frames and %d quiet segments; want %d more",
			quiet.events, forced.events, quiet.frames, quiet.quiet, 2*forced.frames+2*uint64(quiet.quiet))
	}
}

// trainRig connects a to b, b collecting the stream, with a rate-0
// frame-drop schedule naming site unless it is empty, and returns the
// established client end.
func trainRig(t *testing.T, site string) (*sim.Engine, *host, *Conn, *int) {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	a, b := hostsOn(t, eng, nw, simnet.Gbps)
	if site != "" {
		nameSites(eng, nw, site)
	}
	got := new(int)
	if err := b.tcp.Listen(80, func(c *Conn) {
		c.SetReceiver(func(data *netbuf.Chain) {
			*got += data.Len()
			data.Release()
		})
	}); err != nil {
		t.Fatal(err)
	}
	var c *Conn
	a.tcp.Connect(a.addr, b.addr, 80, func(conn *Conn, err error) {
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		c = conn
	})
	eng.Run()
	return eng, a, c, got
}

// TestSegmentTrainEventBudget pins what one message of n segments costs in
// simulator events once the connection is idle. Each loud segment costs
// two, its departure from the switch and its upcall; each quiet one, every
// odd one but the last, none. The receiver acks every second segment and the
// last, two events per pure ack. When a frame-fault schedule names the
// sender's transmit site, no segment is quiet: each costs its two, and a
// departure from the named site of its own.
func TestSegmentTrainEventBudget(t *testing.T) {
	for _, n := range []int{11, 12} {
		for _, site := range []string{"", "a.tx"} {
			eng, a, c, got := trainRig(t, site)
			msg := make([]byte, n*a.tcp.mss())
			e0 := eng.Processed()
			if err := c.Send(msg); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if *got != len(msg) {
				t.Fatalf("%d of %d bytes arrived", *got, len(msg))
			}
			acks, quiet, named := (n+1)/2, n/2, 0
			if site != "" {
				quiet, named = 0, n
			}
			want := 2*(n-quiet) + named + 2*acks
			if ev := int(eng.Processed() - e0); ev != want {
				t.Errorf("%d segments, schedule naming %q: %d events, want %d", n, site, ev, want)
			}
		}
	}
}

// TestSegmentTrainAllocFree: once primed, a message of 12 segments, 6 of
// them quiet, and its acks cross the fabric without allocating.
func TestSegmentTrainAllocFree(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, a, c, got := trainRig(t, "")
	msg := make([]byte, 12*a.tcp.mss())
	send := func() {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(100, send); avg != 0 {
		t.Errorf("a 12-segment message allocates %.1f objects, want 0", avg)
	}
	if *got != 105*len(msg) {
		t.Errorf("%d bytes arrived, want %d", *got, 105*len(msg))
	}
}
