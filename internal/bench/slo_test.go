package bench

import (
	"strings"
	"testing"

	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// TestLatencySLOGate is the regression gate: the quick-scale fig5b point
// must stay inside each configuration's p99 and per-layer-share budgets
// (Fig5bSLOs). A data-path slowdown or attribution shift fails here before
// it is visible in throughput.
func TestLatencySLOGate(t *testing.T) {
	opt := quickOpts()
	opt.Latency = true
	byMode := make(map[passthru.Mode]NFSPoint)
	for _, b := range Fig5bSLOs {
		p, err := fig5Point(testHarness(t, opt), b.Mode, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		byMode[b.Mode] = p
		for _, viol := range CheckSLO(p, b) {
			t.Errorf("%s: %s", b.Mode, viol)
		}
	}
	// The paper's ordering is itself an SLO: the network-centric cache must
	// not lose its latency advantage over the pass-through original.
	origP99 := byMode[passthru.Original].Lat.Ops[0].P99
	ncP99 := byMode[passthru.NCache].Lat.Ops[0].P99
	if ncP99 >= origP99 {
		t.Errorf("NCache read p99 %v no better than Original %v", ncP99, origP99)
	}
}

// TestCheckSLOViolations checks the gate actually trips: a synthetic point
// violating every budget dimension reports every violation.
func TestCheckSLOViolations(t *testing.T) {
	p := NFSPoint{window: window{Lat: &trace.Summary{Ops: []trace.OpSummary{{
		Op:    "read",
		Count: 10,
		P99:   5 * sim.Millisecond,
		Layers: []trace.LayerStat{
			{Layer: trace.LServer, Total: 90 * sim.Millisecond},
			{Layer: trace.LNet, Total: 10 * sim.Millisecond},
		},
	}}}}}
	b := SLOBudget{
		MaxP99:   sim.Millisecond,
		MinCount: 100,
		MaxShare: map[trace.Layer]float64{trace.LServer: 0.5},
	}
	v := CheckSLO(p, b)
	if len(v) != 3 {
		t.Fatalf("violations = %v, want p99 + count + server share", v)
	}
	joined := strings.Join(v, "\n")
	for _, want := range []string{"p99", "reads measured", "server"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %q", want, joined)
		}
	}

	if v := CheckSLO(NFSPoint{}, b); len(v) != 1 || !strings.Contains(v[0], "no latency summary") {
		t.Errorf("untraced point: %v", v)
	}
}
