package bench

import (
	"reflect"
	"testing"
)

// TestScaleoutScales is the acceptance check of the scale-out experiment:
// with the client population growing with the tier, four routed front-end
// servers must deliver more aggregate throughput than one.
func TestScaleoutScales(t *testing.T) {
	pts, err := scaleoutCounts(testHarness(t, quickOpts()), []int{1, 4})
	if err != nil {
		t.Fatalf("scaleout: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("scaleout: got %d points, want 2", len(pts))
	}
	one, four := pts[0], pts[1]
	if one.Errors+one.RouteErrors != 0 || four.Errors+four.RouteErrors != 0 {
		t.Fatalf("scaleout: errors: 1-server %d/%d, 4-server %d/%d",
			one.Errors, one.RouteErrors, four.Errors, four.RouteErrors)
	}
	if four.ThroughputMBs <= one.ThroughputMBs {
		t.Fatalf("scaleout: 4 servers (%.1f MB/s) did not beat 1 server (%.1f MB/s)",
			four.ThroughputMBs, one.ThroughputMBs)
	}
	if four.RemapsSent == 0 {
		t.Fatalf("scaleout: 4-server run announced no remaps (flushers idle?)")
	}
	if four.RemapsAbandoned != 0 {
		t.Fatalf("scaleout: %d remaps abandoned on a fault-free run", four.RemapsAbandoned)
	}
	t.Logf("\n%s", FormatScaleoutPoints(pts))
}

// TestFaultScaleoutLossDoesNotCollapse: frame loss on the client links of a
// two-server tier is recovered by the routed clients' own resends — which
// they must have (rpcRtx > 0, no call left pending, no error escapes) — and
// recovering it must not cost the tier its throughput. The run replays
// identically. (At these smoke settings a READ takes a few milliseconds; at
// full settings the median is 24 ms, past the 20 ms resend floor, and what
// keeps the tier from collapsing is that the timer follows the round trip —
// EXPERIMENTS.md has that sweep, sunrpc's TestRetransmitFollowsLatency the
// mechanism.)
func TestFaultScaleoutLossDoesNotCollapse(t *testing.T) {
	run := func(spec string) ScaleoutPoint {
		t.Helper()
		opt := quickOpts()
		opt.FaultSpec, opt.FaultSeed = spec, testFaultSeed(t)
		p, err := scaleoutPoint(testHarness(t, opt), 2, ScaleoutTargets)
		if err != nil {
			t.Fatalf("scaleout under %q: %v", spec, err)
		}
		return p
	}
	lossless, lossy := run(""), run("frame-loss")
	t.Logf("\n%s", FormatScaleoutPoints([]ScaleoutPoint{lossless, lossy}))
	if lossy.Errors+lossy.RouteErrors != 0 {
		t.Errorf("%d request and %d route errors escaped to the clients", lossy.Errors, lossy.RouteErrors)
	}
	if lossy.RPCRetransmits == 0 {
		t.Errorf("no RPC call was resent under frame loss: the routed clients have no retransmission timer")
	}
	if lossy.PendingCalls != 0 {
		t.Errorf("%d calls still pending after the drain", lossy.PendingCalls)
	}
	if lossy.ThroughputMBs < 0.7*lossless.ThroughputMBs {
		t.Errorf("%.1f MB/s under frame loss is %.0f%% of the lossless %.1f MB/s, want at least 70%% (%d calls resent, %d answered twice)",
			lossy.ThroughputMBs, 100*lossy.ThroughputMBs/lossless.ThroughputMBs, lossless.ThroughputMBs,
			lossy.RPCRetransmits, lossy.DupReplies)
	}
	if again := run("frame-loss"); !reflect.DeepEqual(again, lossy) {
		t.Errorf("rerun diverged:\nfirst:  %+v\nsecond: %+v", lossy, again)
	}
}
