package tcp

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// twoHostsFaults is twoHosts with a fault injector on the switch fabric.
// The injector starts disarmed; tests arm it around the lossy phase.
func twoHostsFaults(t *testing.T, seed uint64, spec string) (*sim.Engine, *fault.Injector, *host, *host) {
	t.Helper()
	eng := sim.NewEngine()
	nw := simnet.NewNetwork(eng, 5*sim.Microsecond)
	in, err := fault.NewFromSpec(eng, seed, spec)
	if err != nil {
		t.Fatalf("fault spec %q: %v", spec, err)
	}
	nw.SetFaults(in)
	a, b := hostsOn(t, eng, nw, simnet.Gbps)
	return eng, in, a, b
}

// lossSeed reads the CI fault-seed matrix override (NCACHE_FAULT_SEED), so
// the loss suite replays under the same seed sweep as the cluster-level
// fault tests.
func lossSeed(t *testing.T, dflt uint64) uint64 {
	t.Helper()
	s := os.Getenv("NCACHE_FAULT_SEED")
	if s == "" {
		return dflt
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("NCACHE_FAULT_SEED=%q: %v", s, err)
	}
	return v
}

// lossPayload is the stream every loss test pushes through the connection:
// big enough that drops regularly hole the in-flight window (hundreds of
// segments), seeded so corruption would be detected byte-for-byte.
func lossPayload() []byte {
	want := make([]byte, 512*1024)
	rand.New(rand.NewSource(42)).Read(want)
	return want
}

// runLossTransfer drives one connection a→b under the armed injector,
// streaming lossPayload in application-sized chunks, and returns the bytes
// the server collected.
func runLossTransfer(t *testing.T, eng *sim.Engine, a, b *host, want []byte) *bytes.Buffer {
	t.Helper()
	got := collectServer(t, b, 80)
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect under loss: %v", err)
			return
		}
		for off := 0; off < len(want); off += 64 * 1024 {
			end := off + 64*1024
			if end > len(want) {
				end = len(want)
			}
			if err := c.Send(want[off:end]); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	})
	eng.Run()
	return got
}

// checkHostsDrained asserts that once the engine idles, neither host holds
// pooled buffers: the retransmission queues released every clone as acks
// advanced, and the receivers released every segment they were handed.
func checkHostsDrained(t *testing.T, hosts ...*host) {
	t.Helper()
	for _, h := range hosts {
		for _, p := range h.node.Pools() {
			if got := p.Outstanding(); got != 0 {
				t.Errorf("pool %s leaked %d buffers (owners %v)",
					p.Name(), got, p.LeakReport())
			}
		}
	}
}

// TestLossRecoveryDeliversExactStream is the core loss-recovery property:
// under random drop, duplicate and reorder (delay) schedules — alone and
// combined — the receiver sees the exact byte stream the sender wrote, no
// segment escapes as a protocol error, no connection aborts, and every
// pooled buffer the recovery machinery borrowed is returned.
func TestLossRecoveryDeliversExactStream(t *testing.T) {
	cases := []struct {
		name string
		spec string
		// check asserts the schedule provoked the machinery it targets.
		check func(t *testing.T, a, b *Transport)
	}{
		{
			name: "drop",
			spec: "drop:a*:rate=0.02,drop:b*:rate=0.02",
			check: func(t *testing.T, a, b *Transport) {
				if a.Retransmits == 0 {
					t.Error("2% frame loss provoked no retransmissions")
				}
			},
		},
		{
			name: "dup",
			spec: "dup:a*:rate=0.05,dup:b*:rate=0.05",
			check: func(t *testing.T, a, b *Transport) {
				if a.DupSegments+b.DupSegments == 0 {
					t.Error("5% duplication provoked no duplicate-segment suppression")
				}
			},
		},
		{
			name: "reorder",
			spec: "delay:a*:rate=0.05:delay=300us,delay:b*:rate=0.05:delay=300us",
			check: func(t *testing.T, a, b *Transport) {
				if a.OutOfOrder+b.OutOfOrder+a.DupSegments+b.DupSegments == 0 {
					t.Error("300us delays provoked no out-of-order handling")
				}
			},
		},
		{
			name: "combined",
			spec: "drop:a*:rate=0.01,drop:b*:rate=0.01," +
				"dup:a*:rate=0.02,dup:b*:rate=0.02," +
				"delay:a*:rate=0.02:delay=300us,delay:b*:rate=0.02:delay=300us",
			check: func(t *testing.T, a, b *Transport) {
				if a.Retransmits == 0 {
					t.Error("combined schedule provoked no retransmissions")
				}
			},
		},
	}
	want := lossPayload()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, in, a, b := twoHostsFaults(t, lossSeed(t, 7), tc.spec)
			in.Arm()
			got := runLossTransfer(t, eng, a, b, want)
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("stream corrupted under %s: got %d bytes, want %d",
					tc.name, got.Len(), len(want))
			}
			if a.tcp.ProtocolErrors != 0 || b.tcp.ProtocolErrors != 0 {
				t.Errorf("protocol errors escaped: %d/%d",
					a.tcp.ProtocolErrors, b.tcp.ProtocolErrors)
			}
			if a.tcp.AbortedConns+b.tcp.AbortedConns != 0 {
				t.Error("loss recovery aborted the connection")
			}
			tc.check(t, a.tcp, b.tcp)
			checkHostsDrained(t, a, b)
			t.Logf("retrans=%d rtos=%d fastrtx=%d dup=%d ooo=%d",
				a.tcp.Retransmits, a.tcp.RTOEvents, a.tcp.FastRetransmits,
				b.tcp.DupSegments, b.tcp.OutOfOrder)
		})
	}
}

// TestLossRecoveryAcrossSeeds sweeps fault seeds: whatever drop/dup/reorder
// pattern a seed draws, the stream must arrive byte-identical. At least one
// seed in the sweep must actually exercise retransmission, or the sweep
// proves nothing.
func TestLossRecoveryAcrossSeeds(t *testing.T) {
	const spec = "drop:a*:rate=0.015,drop:b*:rate=0.015," +
		"dup:b*:rate=0.02,delay:a*:rate=0.02:delay=300us"
	want := lossPayload()
	var retrans uint64
	for seed := uint64(1); seed <= 8; seed++ {
		eng, in, a, b := twoHostsFaults(t, seed, spec)
		in.Arm()
		got := runLossTransfer(t, eng, a, b, want)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("seed %d: stream corrupted: got %d bytes, want %d",
				seed, got.Len(), len(want))
		}
		if a.tcp.ProtocolErrors+b.tcp.ProtocolErrors != 0 {
			t.Errorf("seed %d: protocol errors escaped", seed)
		}
		checkHostsDrained(t, a, b)
		retrans += a.tcp.Retransmits
	}
	if retrans == 0 {
		t.Error("no seed in the sweep provoked a retransmission")
	}
}

// lossCounters is the full observable outcome of a lossy run, for replay
// comparison.
type lossCounters struct {
	Retrans, RTOs, FastRtx   uint64
	DupSegs, OOO, OOODrops   uint64
	Strays, ProtoErrs, Abort uint64
	Bytes                    int
	End                      sim.Time
}

func snapshotLoss(a, b *Transport, got *bytes.Buffer, eng *sim.Engine) lossCounters {
	return lossCounters{
		Retrans:   a.Retransmits,
		RTOs:      a.RTOEvents,
		FastRtx:   a.FastRetransmits,
		DupSegs:   a.DupSegments + b.DupSegments,
		OOO:       a.OutOfOrder + b.OutOfOrder,
		OOODrops:  a.OutOfOrderDrops + b.OutOfOrderDrops,
		Strays:    a.StraySegments + b.StraySegments,
		ProtoErrs: a.ProtocolErrors + b.ProtocolErrors,
		Abort:     a.AbortedConns + b.AbortedConns,
		Bytes:     got.Len(),
		End:       eng.Now(),
	}
}

// TestLossRecoverySeedReplay: the same fault seed must reproduce the same
// recovery bit-for-bit — every counter and the virtual completion time. RTO
// timers, backoff and fast-retransmit decisions all feed the event order, so
// any hidden nondeterminism (map iteration, wall-clock leakage) diverges
// here.
func TestLossRecoverySeedReplay(t *testing.T) {
	const spec = "drop:a*:rate=0.02,drop:b*:rate=0.02,delay:b*:rate=0.02:delay=300us"
	want := lossPayload()
	run := func() lossCounters {
		eng, in, a, b := twoHostsFaults(t, lossSeed(t, 99), spec)
		in.Arm()
		got := runLossTransfer(t, eng, a, b, want)
		return snapshotLoss(a.tcp, b.tcp, got, eng)
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if first.Retrans == 0 {
		t.Error("replay pair exercised no retransmissions")
	}
}

// TestRTOExponentialBackoff drops the first frames of the handshake
// deterministically (rate=1, count-limited): the SYN must be re-sent on the
// RTO timer with exponential backoff, so the connection establishes only
// after BaseRTO + 2*BaseRTO of timer waits.
func TestRTOExponentialBackoff(t *testing.T) {
	eng, in, a, b := twoHostsFaults(t, 1, "drop:b*:rate=1:count=2")
	in.Arm()
	if err := b.tcp.Listen(80, func(c *Conn) {}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var estab sim.Time
	a.tcp.Connect(a.addr, b.addr, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		estab = eng.Now()
	})
	eng.Run()
	if estab == 0 {
		t.Fatal("handshake never completed")
	}
	if a.tcp.RTOEvents < 2 {
		t.Fatalf("expected >=2 RTO firings for two dropped SYNs, got %d", a.tcp.RTOEvents)
	}
	if wantMin := sim.Time(BaseRTO + 2*BaseRTO); estab < wantMin {
		t.Fatalf("backoff too fast: established at %v, want >= %v", estab, wantMin)
	}
	checkHostsDrained(t, a, b)
}
