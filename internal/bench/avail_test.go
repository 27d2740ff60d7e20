package bench

import (
	"strings"
	"testing"
)

// TestAvailSmoke runs the fig-avail experiment at test scale and checks the
// availability invariants the figure exists to demonstrate: the mirror keeps
// serving through the arm outage with zero escaped client errors, the dead
// arm is ejected and later readmitted, and the dirty-region resync converges
// so the run ends fully replicated.
func TestAvailSmoke(t *testing.T) {
	opt := quickOpts()
	opt.FaultSeed = testFaultSeed(t)
	rep := points[AvailReport](t, "fig-avail", opt)
	if rep.TotalErrors != 0 {
		t.Fatalf("client errors escaped the mirror: %d", rep.TotalErrors)
	}
	if rep.FinalVol.Ejections == 0 {
		t.Fatalf("outage never tripped the breaker: %+v", rep.FinalVol)
	}
	if !rep.Resynced {
		t.Fatalf("mirror did not fully recover: states=%v vol=%+v",
			rep.FinalStates, rep.FinalVol)
	}
	if rep.HealthyOps <= 0 || rep.OutageOps <= 0 {
		t.Fatalf("timeline has dead phases: healthy=%.0f outage=%.0f",
			rep.HealthyOps, rep.OutageOps)
	}
	if rep.OutageOps < rep.HealthyOps/2 {
		t.Fatalf("outage throughput below 50%% of healthy: %.0f vs %.0f",
			rep.OutageOps, rep.HealthyOps)
	}
	// The buckets tile the window, and every ejection falls in one: the
	// schedule is installed as the window opens and ends at bucket 12.
	if len(rep.Buckets) != availBuckets {
		t.Fatalf("%d buckets, want %d", len(rep.Buckets), availBuckets)
	}
	var ejections uint64
	for i, b := range rep.Buckets {
		if i > 0 && b.StartMs != rep.Buckets[i-1].EndMs {
			t.Fatalf("bucket %d starts at %v ms, the one before ends at %v ms", i, b.StartMs, rep.Buckets[i-1].EndMs)
		}
		ejections += b.Vol.Ejections
	}
	if end, want := rep.Buckets[availBuckets-1].EndMs, float64(availBuckets*(opt.Window/availBuckets))/1e6; end != want {
		t.Fatalf("last bucket ends at %v ms, want %v", end, want)
	}
	if ejections != rep.FinalVol.Ejections {
		t.Fatalf("buckets count %d ejections, the run %d", ejections, rep.FinalVol.Ejections)
	}
	if len(rep.Policies) != len(AvailPolicies) {
		t.Fatalf("policy table incomplete: %+v", rep.Policies)
	}
	for _, p := range rep.Policies {
		if p.Errors != 0 {
			t.Fatalf("policy %s leaked client errors: %d", p.Policy, p.Errors)
		}
		if p.ThroughputMBs <= 0 {
			t.Fatalf("policy %s served nothing: %+v", p.Policy, p)
		}
	}
	out := FormatAvail(rep)
	for _, want := range []string{"fig-avail", "phase averages", "read-policy comparison"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatAvail missing %q:\n%s", want, out)
		}
	}
}
