package bench

import "testing"

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
	if four.CPMembers == 0 {
		t.Fatalf("scaleout: 4-server run fetched no member set from the control plane")
	}
	if four.LocalRouteHits == 0 {
		t.Fatalf("scaleout: 4-server run answered no routes from the client ring replicas")
	}
	if four.RemapsSent == 0 {
		t.Fatalf("scaleout: 4-server run announced no remaps (flushers idle?)")
	}
	if four.RemapsAbandoned != 0 {
		t.Fatalf("scaleout: %d remaps abandoned on a fault-free run", four.RemapsAbandoned)
	}
	t.Logf("\n%s", FormatScaleoutPoints(pts))
}
