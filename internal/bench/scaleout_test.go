package bench

import (
	"testing"

	"ncache/internal/passthru"
	"ncache/internal/sim"
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
	if four.CPLookups+four.CPMembers == 0 {
		t.Fatalf("scaleout: 4-server run resolved no routes through the control plane")
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

// TestPairLookaheadWidensEpochs is the epoch-count gate: wide epochs are the
// point of the topology-derived per-pair lookahead matrix, so the smoke
// scale-out sweep must cross at most 0.4× the barriers it needs when every
// shard pair is pinned back to the uniform fabric-latency floor (the PR 7
// schedule). Epoch counts are a pure function of the schedule — host- and
// worker-independent — so the gate is exact where wall-clock gates are
// noisy.
func TestPairLookaheadWidensEpochs(t *testing.T) {
	epochs := func(preStart func(*passthru.Cluster)) uint64 {
		opt := quickOpts()
		opt.Workers = 1
		h := newHarness(opt)
		h.preStart = preStart
		if _, err := scaleout(h); err != nil {
			t.Fatal(err)
		}
		h.retire()
		return h.stats.Epochs
	}
	pair := epochs(nil)
	uniform := epochs(func(cl *passthru.Cluster) {
		shards := []*sim.Engine{cl.Eng}
		if cl.Control != nil {
			shards = append(shards, cl.Control.Node().Eng)
		}
		for _, s := range cl.Storages {
			shards = append(shards, s.Node.Eng)
		}
		for _, a := range cl.Apps {
			shards = append(shards, a.Node.Eng)
		}
		for _, c := range cl.Clients {
			shards = append(shards, c.Node.Eng)
		}
		for _, src := range shards {
			for _, dst := range shards {
				cl.Eng.SetLookahead(src, dst, passthru.FabricLatency)
			}
		}
	})
	t.Logf("epochs: per-pair %d, uniform %d (%.2fx)", pair, uniform, float64(pair)/float64(uniform))
	if pair == 0 || float64(pair) > 0.4*float64(uniform) {
		t.Fatalf("per-pair lookahead crossed %d barriers, uniform %d: want <= 0.4x", pair, uniform)
	}
}
