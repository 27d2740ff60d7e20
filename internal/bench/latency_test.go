package bench

import (
	"strings"
	"testing"

	"ncache/internal/passthru"
	"ncache/internal/trace"
)

// TestTracingDoesNotPerturbResults checks the zero-cost-when-disabled and
// observer-only-when-enabled guarantees: the same experiment run with and
// without tracing produces identical throughput and op counts.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	opt := quickOpts()
	plain, err := fig5Point(testHarness(t, opt), passthru.NCache, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt.Latency = true
	traced, err := fig5Point(testHarness(t, opt), passthru.NCache, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ThroughputMBs != traced.ThroughputMBs || plain.OpsPerSec != traced.OpsPerSec {
		t.Fatalf("tracing changed results: %.3f MB/s %.1f ops/s vs %.3f MB/s %.1f ops/s",
			plain.ThroughputMBs, plain.OpsPerSec, traced.ThroughputMBs, traced.OpsPerSec)
	}
	if plain.Lat != nil {
		t.Fatal("untraced point carries a latency summary")
	}
	if traced.Lat == nil {
		t.Fatal("traced point is missing its latency summary")
	}
}

// TestLatencySummaryInvariants runs a traced point and checks the summary:
// spans were recorded, percentiles are ordered, every request's per-layer
// attribution summed to its end-to-end duration, and the timeline spreads
// across more than one layer.
func TestLatencySummaryInvariants(t *testing.T) {
	opt := quickOpts()
	opt.Latency = true
	for _, mode := range []passthru.Mode{passthru.Original, passthru.NCache} {
		p, err := fig5Point(testHarness(t, opt), mode, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		sum := p.Lat
		if sum == nil || len(sum.Ops) != 1 || sum.Ops[0].Op != "read" {
			t.Fatalf("%s: summary = %+v", mode, sum)
		}
		if sum.AttrErrors != 0 {
			t.Fatalf("%s: %d attribution errors", mode, sum.AttrErrors)
		}
		op := sum.Ops[0]
		if op.Count == 0 {
			t.Fatalf("%s: no spans in window", mode)
		}
		if !(op.P50 <= op.P90 && op.P90 <= op.P99 && op.P99 <= op.P999 && op.P999 <= op.Max) {
			t.Fatalf("%s: percentiles out of order: %+v", mode, op)
		}
		layersUsed := 0
		for _, ls := range op.Layers {
			if ls.Total > 0 {
				layersUsed++
			}
		}
		if layersUsed < 3 {
			t.Fatalf("%s: latency attributed to only %d layers", mode, layersUsed)
		}
	}
}

// TestLatencyDeterminism checks the same traced run twice produces
// byte-identical summaries (same seed, same virtual clock, same trace).
func TestLatencyDeterminism(t *testing.T) {
	opt := quickOpts()
	opt.Latency = true
	a, err := fig5Point(testHarness(t, opt), passthru.NCache, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fig5Point(testHarness(t, opt), passthru.NCache, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	fa := FormatLatency("x", []NFSPoint{a})
	fb := FormatLatency("x", []NFSPoint{b})
	if fa != fb {
		t.Fatalf("traced runs diverged:\n%s\nvs\n%s", fa, fb)
	}
	if a.Lat.Ops[0].Count != b.Lat.Ops[0].Count {
		t.Fatalf("span counts differ: %d vs %d", a.Lat.Ops[0].Count, b.Lat.Ops[0].Count)
	}
}

// TestChromeExportFromBench runs a small traced point with span retention
// and checks the Chrome exporter produces a non-trivial document.
func TestChromeExportFromBench(t *testing.T) {
	opt := quickOpts()
	opt.Chrome = trace.NewChromeTrace()
	p, err := fig5Point(testHarness(t, opt), passthru.NCache, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Lat == nil || p.Lat.Ops[0].Count == 0 {
		t.Fatal("chrome tracing must also produce a latency summary")
	}
	var b strings.Builder
	if _, err := opt.Chrome.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "\"traceEvents\"") || !strings.Contains(out, "ncache/16KB") {
		t.Fatalf("unexpected chrome trace output:\n%.400s", out)
	}
}
