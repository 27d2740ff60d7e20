package trace

import (
	"testing"

	"ncache/internal/sim"
)

// TestSpanTimelinePartition drives a span through layer switches separated
// by virtual time and checks the invariant the whole subsystem rests on:
// per-layer durations partition the end-to-end latency exactly.
func TestSpanTimelinePartition(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng, "test")
	tr.SetKeepSpans(true)

	sp := tr.Begin("read")
	eng.Schedule(100, func() {
		Active(eng).To(LRPC)
		eng.Schedule(250, func() {
			Active(eng).To(LNet)
			eng.Schedule(50, func() {
				Active(eng).To(LServer)
				eng.Schedule(600, func() {
					Active(eng).Finish()
				})
			})
		})
	})
	eng.Run()
	if sp.Duration() != 1000 {
		t.Fatalf("duration = %v, want 1000", sp.Duration())
	}
	l := sp.Layers()
	want := map[Layer]sim.Duration{LClient: 100, LRPC: 250, LNet: 50, LServer: 600}
	var sum sim.Duration
	for layer := Layer(0); layer < NumLayers; layer++ {
		sum += l[layer]
		if l[layer] != want[layer] {
			t.Errorf("layer %v = %v, want %v", layer, l[layer], want[layer])
		}
	}
	if sum != sp.Duration() {
		t.Fatalf("layer sum %v != duration %v", sum, sp.Duration())
	}
	if tr.AttributionErrors() != 0 {
		t.Fatalf("attribution errors: %d", tr.AttributionErrors())
	}
	// Phases partition the span contiguously.
	phases := sp.Phases()
	if len(phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(phases))
	}
	at := sp.Start()
	for _, ph := range phases {
		if ph.Start != at {
			t.Fatalf("phase gap: starts at %v, expected %v", ph.Start, at)
		}
		at = ph.End
	}
	if at != sp.End() {
		t.Fatalf("phases end at %v, span ends at %v", at, sp.End())
	}
}

// TestNilSafety exercises the disabled-tracing fast path: nil tracers and
// nil spans must be inert through the full API surface.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("read")
	if sp != nil {
		t.Fatal("nil tracer must produce nil span")
	}
	sp.To(LDisk)
	sp.Account(LNCache, 100)
	sp.Finish()
	tr.ResetStats()
	tr.Freeze()
	if tr.Summary() != nil || tr.Spans() != nil || tr.AttributionErrors() != 0 {
		t.Fatal("nil tracer accessors must return zero values")
	}
	eng := sim.NewEngine()
	if Active(eng) != nil {
		t.Fatal("Active on context-free engine must be nil")
	}
	To(eng, LNet) // must not panic
	Account(eng, LNet, 5)
}

// TestFinishedSpanInert checks that late events carrying a finished span's
// context cannot corrupt its record.
func TestFinishedSpanInert(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng, "test")
	sp := tr.Begin("read")
	eng.Schedule(10, func() { Active(eng).Finish() })
	eng.Schedule(20, func() { Active(eng).To(LDisk) }) // stale context
	eng.Run()
	if sp.Duration() != 10 {
		t.Fatalf("duration = %v, want 10", sp.Duration())
	}
	if sp.Layers()[LDisk] != 0 {
		t.Fatal("finished span accrued time")
	}
}

// TestResetAndFreezeWindow checks window semantics: ResetStats discards the
// warm-up, Freeze drops the drain.
func TestResetAndFreezeWindow(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng, "test")
	finishAt := func(d sim.Duration) {
		sp := tr.Begin("op")
		eng.Schedule(d, func() { _ = sp; Active(eng).Finish() })
	}
	finishAt(5) // warm-up span
	eng.Run()
	tr.ResetStats()
	finishAt(7) // window span
	eng.Run()
	tr.Freeze()
	finishAt(9) // drain span
	eng.Run()
	sum := tr.Summary()
	if len(sum.Ops) != 1 || sum.Ops[0].Count != 1 {
		t.Fatalf("summary = %+v, want exactly the window span", sum)
	}
	if sum.Ops[0].Mean != 7 {
		t.Fatalf("mean = %v, want 7", sum.Ops[0].Mean)
	}
}

// TestUsageAttribution checks that resource use lands on the span through
// its completions: the span rides each Resource.Use done, and the time a
// job waits and is served accrues to the layer switched to before it.
func TestUsageAttribution(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng, "test")
	cpu := sim.NewResource(eng)
	disk := sim.NewResource(eng)

	sp := tr.Begin("read")
	cpu.Use(50, nil) // work already queued: the next job waits behind it
	To(eng, LServer)
	cpu.Use(100, func() {
		To(eng, LDisk)
		disk.Use(300, func() { Active(eng).Finish() })
	})
	eng.Run()
	l := sp.Layers()
	if sp.Duration() != 450 || l[LServer] != 150 || l[LDisk] != 300 {
		t.Fatalf("duration %v, server %v, disk %v; want 450, 150 (wait and service), 300", sp.Duration(), l[LServer], l[LDisk])
	}
	if got := tr.Summary().Ops[0].Layers[LDisk].Total; got != 300 {
		t.Fatalf("summary disk total = %v, want 300", got)
	}
}

// TestAccountCharges checks fire-and-forget cost bookkeeping.
func TestAccountCharges(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng, "test")
	sp := tr.Begin("write")
	eng.Schedule(10, func() {
		Account(eng, LNCache, 2500)
		Account(eng, LNCache, 2500)
		Active(eng).Finish()
	})
	eng.Run()
	if sp.charged[LNCache] != 5000 {
		t.Fatalf("charged = %v, want 5000", sp.charged[LNCache])
	}
	sum := tr.Summary()
	if sum.Ops[0].Layers[LNCache].Charged != 5000 {
		t.Fatalf("summary charged = %v", sum.Ops[0].Layers[LNCache].Charged)
	}
}

// TestToAtSwitchesWhenDue: a switch booked ahead takes effect at its
// instant, after any switch the span makes before then, and a span that
// finishes first never takes it. The layers still partition each span.
func TestToAtSwitchesWhenDue(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng, "test")
	a := tr.Begin("read")
	a.ToAt(LNet, 100)
	a.ToAt(LNet, 300)
	eng.Schedule(50, func() { a.To(LRPC) })   // before the first booked instant
	eng.Schedule(200, func() { a.To(LDisk) }) // between the two
	eng.Schedule(400, func() { a.Finish() })
	b := tr.Begin("write")
	b.ToAt(LNet, 500) // after b finishes
	eng.Schedule(450, func() { b.Finish() })
	eng.Run()
	want := map[Layer]sim.Duration{LClient: 50, LRPC: 50, LNet: 100 + 100, LDisk: 100}
	for l := Layer(0); l < NumLayers; l++ {
		if got := a.Layers()[l]; got != want[l] {
			t.Errorf("span a: layer %v = %v, want %v", l, got, want[l])
		}
	}
	if got := b.Layers(); got[LClient] != 450 || got[LNet] != 0 {
		t.Errorf("span b: client %v, net %v; want 450, 0", got[LClient], got[LNet])
	}
	if tr.AttributionErrors() != 0 {
		t.Fatalf("attribution errors: %d", tr.AttributionErrors())
	}
}
