package tcp

import (
	"bytes"
	"testing"

	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// connectPair opens one connection a→b:port whose server side discards what
// it receives, and returns the client end once the handshake is done.
func connectPair(t *testing.T, eng *sim.Engine, a, b *host, port uint16) *Conn {
	t.Helper()
	collectServer(t, b, port)
	var conn *Conn
	a.tcp.Connect(a.addr, b.addr, port, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
		}
		conn = c
	})
	eng.Run()
	if conn == nil {
		t.Fatalf("handshake to port %d never completed", port)
	}
	return conn
}

// TestRTOFollowsQueueingDelay: two connections share a 100 Mb/s NIC. One
// streams, so a full window of its segments — 256 KB, 21 ms of wire time —
// stands in the sender's queue; the other sends an 8 KB message every 60 ms,
// each of which waits behind that queue for longer than BaseRTO. Nothing is
// lost. The first message is resent (nothing is known about the path) and
// the second measures it; from the third on no timer fires and no segment is
// resent, where the fixed 20 ms timer resends every message.
func TestRTOFollowsQueueingDelay(t *testing.T) {
	const (
		messages = 12
		learning = 2
		every    = 60 * sim.Millisecond
	)
	eng, a, b := twoHostsAt(t, simnet.Gbps/10)
	bulk := connectPair(t, eng, a, b, 80)
	msgs := connectPair(t, eng, a, b, 81)

	// Enough bulk data to keep the queue standing for the whole run: 10 MB
	// is 800 ms of this link.
	stream := make([]byte, 64*1024)
	for sent := 0; sent < 10<<20; sent += len(stream) {
		if err := bulk.Send(stream); err != nil {
			t.Fatalf("bulk Send: %v", err)
		}
	}
	var afterLearning struct{ rtos, resent uint64 }
	var worst sim.Duration
	for i := 0; i < messages; i++ {
		if i == learning {
			afterLearning.rtos, afterLearning.resent = a.tcp.RTOEvents, a.tcp.Retransmits
		}
		start := eng.Now()
		if err := msgs.Send(make([]byte, 8*1024)); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		for msgs.sndUna != msgs.sndNxt {
			eng.RunFor(sim.Millisecond)
		}
		worst = max(worst, eng.Now().Sub(start))
		eng.RunUntil(start.Add(every))
	}
	t.Logf("slowest message acknowledged after %v; %d timeouts and %d resent segments in all",
		worst, a.tcp.RTOEvents, a.tcp.Retransmits)
	if worst <= BaseRTO {
		t.Fatalf("no message waited longer than BaseRTO (%v): the queue never outran the floor, the test shows nothing", worst)
	}
	if rtos, resent := a.tcp.RTOEvents-afterLearning.rtos, a.tcp.Retransmits-afterLearning.resent; rtos != 0 || resent != 0 {
		t.Errorf("after %d messages of learning: %d timeouts resent %d segments over %d messages on a lossless path, want 0 and 0",
			learning, rtos, resent, messages-learning)
	}
	if a.tcp.FastRetransmits != 0 || a.tcp.AbortedConns+b.tcp.AbortedConns != 0 {
		t.Errorf("fast retransmits %d, aborted connections %d; want none", a.tcp.FastRetransmits, a.tcp.AbortedConns+b.tcp.AbortedConns)
	}
}

// TestRTOFloorUnchangedOnQuietPath: on a path whose round trips are far
// below BaseRTO the estimator must change nothing before a timer has fired —
// the first timeout of each of loss_test.go's drop schedules falls on the
// instant it fell on under the fixed 20 ms timer, to the nanosecond. The
// instants below were printed by this test on the commit before the
// estimator, at seeds whose schedule holes a window past what fast retransmit
// recovers.
func TestRTOFloorUnchangedOnQuietPath(t *testing.T) {
	cases := []struct {
		name  string
		spec  string
		seed  uint64
		first sim.Time
	}{
		{"drop", "drop:a*:rate=0.02,drop:b*:rate=0.02", 7, 26222804},
		{"combined", "drop:a*:rate=0.01,drop:b*:rate=0.01," +
			"dup:a*:rate=0.02,dup:b*:rate=0.02," +
			"delay:a*:rate=0.02:delay=300us,delay:b*:rate=0.02:delay=300us", 4, 26917948},
		{"across seeds", "drop:a*:rate=0.015,drop:b*:rate=0.015," +
			"dup:b*:rate=0.02,delay:a*:rate=0.02:delay=300us", 3, 26456988},
		{"replay", "drop:a*:rate=0.02,drop:b*:rate=0.02,delay:b*:rate=0.02:delay=300us", 99, 26002332},
	}
	want := lossPayload()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, in, a, b := twoHostsFaults(t, tc.seed, tc.spec)
			in.Arm()
			got := collectServer(t, b, 80)
			var first sim.Time
			a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
				if err != nil {
					t.Errorf("connect under loss: %v", err)
					return
				}
				onRTO := c.rtoFn
				c.rtoFn = func() {
					before := a.tcp.RTOEvents
					onRTO()
					if first == 0 && a.tcp.RTOEvents > before {
						first = eng.Now()
					}
				}
				for off := 0; off < len(want); off += 64 * 1024 {
					if err := c.Send(want[off:min(off+64*1024, len(want))]); err != nil {
						t.Errorf("Send: %v", err)
					}
				}
			})
			eng.Run()
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("stream corrupted: got %d bytes, want %d", got.Len(), len(want))
			}
			if first != tc.first {
				t.Errorf("first timeout at %d ns, want %d ns as under the fixed timer", int64(first), int64(tc.first))
			}
		})
	}
}

// TestResendDupAcksDoNotFastRetransmit: the receiver's acks are held 25 ms,
// so the first window times out although nothing was lost and goes out a
// second time. The receiver answers every copy with a duplicate ack, and
// those arrive while the next window is outstanding. They report no loss —
// they are the resend's own echo — and must not count toward fast
// retransmit: the spurious timeout costs the one window it resent, not a
// further head-of-queue resend for every third copy.
func TestResendDupAcksDoNotFastRetransmit(t *testing.T) {
	eng, in, a, b := twoHostsFaults(t, 1, "delay:b.tx:rate=1:delay=25ms")
	conn := connectPair(t, eng, a, b, 80)
	in.Arm()
	for sent := 0; sent < 2<<20; sent += 64 * 1024 {
		if err := conn.Send(make([]byte, 64*1024)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	window := uint64(len(conn.rtxQ))
	eng.Run()
	t.Logf("window %d segments: %d timeouts, %d fast retransmits, %d segments resent, %d duplicates at the receiver",
		window, a.tcp.RTOEvents, a.tcp.FastRetransmits, a.tcp.Retransmits, b.tcp.DupSegments)
	if a.tcp.RTOEvents == 0 || b.tcp.DupSegments == 0 {
		t.Fatalf("timeouts %d, duplicate segments %d: the held acks provoked no resend, the test shows nothing",
			a.tcp.RTOEvents, b.tcp.DupSegments)
	}
	if a.tcp.FastRetransmits != 0 {
		t.Errorf("%d fast retransmits on a lossless path: a resend's own duplicate acks were taken for a loss", a.tcp.FastRetransmits)
	}
	if a.tcp.RTOEvents != 1 || a.tcp.Retransmits != window {
		t.Errorf("%d timeouts resent %d segments, want 1 and the %d of the first window", a.tcp.RTOEvents, a.tcp.Retransmits, window)
	}
	if conn.sndUna != conn.sndNxt || len(conn.rtxQ) != 0 {
		t.Errorf("sndUna %d, sndNxt %d, %d segments retained: the stream did not drain", conn.sndUna, conn.sndNxt, len(conn.rtxQ))
	}
	checkHostsDrained(t, a, b)
}
