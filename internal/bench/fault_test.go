package bench

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"ncache/internal/passthru"
	"ncache/internal/trace"
)

// testFaultSeed reads the CI seed-matrix override (NCACHE_FAULT_SEED); the
// default seed 1 matches the results/fig-fault.txt artifact.
func testFaultSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("NCACHE_FAULT_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("NCACHE_FAULT_SEED=%q: %v", s, err)
	}
	return v
}

// faultOpts is the quick-scale configuration of the degradation tests; the
// traced run carries per-layer fault attribution.
func faultOpts(t *testing.T) Options {
	opt := quickOpts()
	opt.Latency = true
	opt.FaultSeed = testFaultSeed(t)
	return opt
}

// faultedPoint measures the fig-fault point under one schedule.
func faultedPoint(t *testing.T, opt Options, mode passthru.Mode, spec string) NFSPoint {
	t.Helper()
	p, err := faultPoint(testHarness(t, opt), mode, spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// layerFaults returns (count, delay) of fault injections booked to one layer
// of the read op.
func layerFaults(p NFSPoint, l trace.Layer) (uint64, float64) {
	if p.Lat == nil {
		return 0, 0
	}
	for _, op := range p.Lat.Ops {
		if op.Op != "read" {
			continue
		}
		for _, ls := range op.Layers {
			if ls.Layer == l {
				return ls.FaultCount, float64(ls.Fault)
			}
		}
	}
	return 0, 0
}

// TestFaultDegradation is the headline assertion of the fault subsystem:
// under every fault class NCache degrades no worse than Original — faulted
// NCache throughput stays at or above faulted Original throughput (with a
// small slack for scheduling noise), and neither mode surfaces request
// errors (all injected faults are absorbed by recovery, not by clients).
//
// Note the comparison is absolute, not relative-slowdown: NCache's higher
// fault-free throughput means a rate-based schedule injects MORE faults into
// it per window, so its percentage slowdown can legitimately exceed
// Original's while its absolute service level remains strictly better.
func TestFaultDegradation(t *testing.T) {
	for _, sc := range FaultScenarios {
		if sc == "none" {
			continue
		}
		spec := sc
		t.Run(sc, func(t *testing.T) {
			pts := make(map[passthru.Mode]NFSPoint)
			for _, mode := range FaultModes {
				p := faultedPoint(t, faultOpts(t), mode, spec)
				if p.Errors != 0 {
					t.Errorf("%s under %s: %d request errors escaped recovery", mode, sc, p.Errors)
				}
				if p.RPCTimeouts != 0 {
					t.Errorf("%s under %s: %d RPC calls abandoned", mode, sc, p.RPCTimeouts)
				}
				injected := uint64(0)
				for _, r := range p.FaultReport {
					injected += r.Injected
				}
				if injected == 0 {
					t.Errorf("%s under %s: schedule never fired", mode, sc)
				}
				pts[mode] = p
			}
			orig, nc := pts[passthru.Original], pts[passthru.NCache]
			if nc.ThroughputMBs < orig.ThroughputMBs*0.95 {
				t.Errorf("NCache degrades worse than Original under %s: %.1f MB/s vs %.1f MB/s",
					sc, nc.ThroughputMBs, orig.ThroughputMBs)
			}
		})
	}
}

// TestFaultBaselineUnperturbed checks a wired-but-fault-free cluster (the
// "none" scenario builds no injector at all) matches a run that never heard
// of the fault subsystem: recovery machinery is strictly opt-in.
func TestFaultBaselineUnperturbed(t *testing.T) {
	opt := quickOpts()
	plain, err := fig4Point(testHarness(t, opt), passthru.NCache, 16, int64(96*1024)/int64(opt.Scale))
	if err != nil {
		t.Fatal(err)
	}
	viaFault := faultedPoint(t, faultOpts(t), passthru.NCache, "")
	if plain.ThroughputMBs != viaFault.ThroughputMBs || plain.OpsPerSec != viaFault.OpsPerSec {
		t.Fatalf("empty fault spec perturbed the run: %.3f MB/s %.1f ops/s vs %.3f MB/s %.1f ops/s",
			plain.ThroughputMBs, plain.OpsPerSec, viaFault.ThroughputMBs, viaFault.OpsPerSec)
	}
	if viaFault.RPCRetransmits != 0 || viaFault.ISCSIRetries != 0 || viaFault.FaultReport != nil {
		t.Fatalf("fault-free run reports fault activity: %+v", viaFault)
	}
}

// TestFaultSeedReproducibility checks clause (c) of the degradation suite:
// the same seed replays a faulted run bit-for-bit — identical throughput,
// counters, attribution and schedule report — while a different seed moves
// the injection points.
func TestFaultSeedReproducibility(t *testing.T) {
	opt := faultOpts(t)
	run := func(seed uint64) string {
		o := opt
		o.FaultSeed = seed
		p := faultedPoint(t, o, passthru.NCache, "frame-loss")
		return FormatFaultPoints([]FaultPoint{{Scenario: "frame-loss", NFSPoint: p}})
	}
	a, b := run(opt.FaultSeed), run(opt.FaultSeed)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	if other := run(opt.FaultSeed + 1); other == a {
		t.Fatal("different seeds produced identical faulted runs")
	}
}

// TestFaultLayerAttribution checks injected faults land on the right trace
// layer: disk schedules charge LDisk and leave the network clean; frame
// schedules charge the transports (drop recovery is booked to LNet by the
// RPC retransmission timer) and leave the disks clean.
func TestFaultLayerAttribution(t *testing.T) {
	p := faultedPoint(t, faultOpts(t), passthru.NCache, "slow-disk")
	if n, d := layerFaults(p, trace.LDisk); n == 0 || d <= 0 {
		t.Errorf("slow-disk: LDisk attribution = %d/%.0f, want >0", n, d)
	}
	if n, _ := layerFaults(p, trace.LNet); n != 0 {
		t.Errorf("slow-disk: %d faults leaked onto LNet", n)
	}

	p = faultedPoint(t, faultOpts(t), passthru.NCache, "frame-loss")
	if p.RPCRetransmits == 0 {
		t.Fatal("frame-loss: no RPC retransmissions at rate 0.002")
	}
	if n, d := layerFaults(p, trace.LNet); n == 0 || d <= 0 {
		t.Errorf("frame-loss: LNet attribution = %d/%.0f, want >0", n, d)
	}
	if n, _ := layerFaults(p, trace.LDisk); n != 0 {
		t.Errorf("frame-loss: %d faults leaked onto LDisk", n)
	}
}

// TestFaultReportRendering smoke-checks the fig-fault table pieces on a
// single cheap point (the full sweep is cmd/ncbench territory).
func TestFaultReportRendering(t *testing.T) {
	p := faultedPoint(t, faultOpts(t), passthru.Original, "slow-disk")
	base := faultedPoint(t, faultOpts(t), passthru.Original, "")
	out := FormatFaultPoints([]FaultPoint{
		{Scenario: "none", NFSPoint: base},
		{Scenario: "slow-disk", NFSPoint: p},
	})
	for _, want := range []string{"vs none", "slowdisk:disk*", "disk="} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestFaultTransportLossRecovery is the tentpole acceptance at bench scale:
// the transport comparison under the frame-loss preset completes with zero
// escaped request errors over BOTH transports — UDP absorbing loss through
// datagram-RPC retransmission, TCP through RTO/fast-retransmit — with each
// transport's recovery machinery demonstrably exercised, and the whole
// faulted comparison replaying bit-for-bit at the same seed (the
// transport+frame-loss row of TestSeedReplay).
func TestFaultTransportLossRecovery(t *testing.T) {
	opt := faultOpts(t)
	opt.FaultSpec = "frame-loss"
	first := points[[]TransportPoint](t, "transport", opt)
	var tcpRtx, rpcRtx uint64
	for _, p := range first {
		if p.Errors != 0 {
			t.Errorf("%s/%s: %d request errors escaped loss recovery",
				p.Mode, p.Transport, p.Errors)
		}
		switch p.Transport {
		case "tcp":
			tcpRtx += p.TCPRetransmits
		case "udp":
			rpcRtx += p.RPCRetransmits
		}
	}
	if tcpRtx == 0 {
		t.Error("frame loss on client links provoked no TCP retransmissions")
	}
	if rpcRtx == 0 {
		t.Error("frame loss on client links provoked no RPC retransmissions")
	}
}
