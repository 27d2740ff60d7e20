package fault

import (
	"strings"
	"testing"

	"ncache/internal/sim"
)

// TestParseSpecRoundTrip checks that every parsed schedule re-renders to a
// string that parses back to the same schedule.
func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"drop:client*:rate=0.01",
		"corrupt:*:rate=0.5",
		"delay:app.rx:rate=0.1:delay=100µs",
		"slowdisk:disk0:rate=0.5:delay=5ms:start=100ms",
		"diskerr:disk*:rate=0.02:count=3",
		"cpuburst:app.cpu:delay=500µs:period=2ms:end=1s",
		"drop:client0.tx:rate=0.1,slowdisk:disk1:rate=1:delay=1ms",
	}
	for _, spec := range specs {
		ss, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		for _, s := range ss {
			again, err := ParseSpec(s.String())
			if err != nil {
				t.Fatalf("re-parse %q (from %q): %v", s.String(), spec, err)
			}
			if len(again) != 1 || again[0] != s {
				t.Errorf("round trip %q: got %+v, want %+v", s.String(), again, s)
			}
		}
	}
}

// TestParseSpecPresets checks every preset parses.
func TestParseSpecPresets(t *testing.T) {
	for name, spec := range Presets {
		ss, err := ParseSpec(name)
		if err != nil {
			t.Errorf("preset %s (%q): %v", name, spec, err)
		}
		if len(ss) == 0 {
			t.Errorf("preset %s parsed empty", name)
		}
	}
}

// TestParseSpecErrors checks malformed specs are rejected with an error, not
// a panic or a silent zero schedule.
func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"drop",                            // no target
		"nonsense:disk0:rate=0.5",         // unknown class
		"drop:disk0:rate=1.5",             // rate out of range
		"drop:disk0:rate=-1",              // negative rate
		"drop:disk0:rate",                 // not key=value
		"drop:disk0:bogus=1",              // unknown key
		"drop:disk0",                      // missing rate
		"delay:disk0:rate=0.5",            // delay class without delay=
		"slowdisk:disk0:delay=1ms",        // slowdisk without rate
		"cpuburst:app.cpu:period=1ms",     // cpuburst without delay
		"cpuburst:app.cpu:delay=1ms",      // cpuburst without period
		"drop:d:rate=0.1:delay=zzz",       // bad duration
		"drop:d:rate=0.1:count=-2",        // bad count
		"drop:d:rate=0.1:start=2s:end=1s", // end before start
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", spec)
		}
	}
}

// TestNilInjector checks the disabled state declines everything safely.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if d := in.FrameTx("x.tx"); d != (Decision{}) {
		t.Errorf("nil FrameTx = %+v", d)
	}
	if d := in.Disk("disk0"); d != (Decision{}) {
		t.Errorf("nil Disk = %+v", d)
	}
	in.Arm()
	in.Quiesce()
	in.AttachCPU("x.cpu", nil)
	if r := in.Report(); r != nil {
		t.Errorf("nil Report = %v", r)
	}
}

// drain runs every decision opportunity of one frame-drop run and returns
// the firing pattern.
func dropPattern(seed uint64, n int) string {
	eng := sim.NewEngine()
	in := New(eng, seed)
	in.Add(Schedule{Class: FrameDrop, Target: "*", Rate: 0.3})
	in.Arm()
	var b strings.Builder
	for i := 0; i < n; i++ {
		if in.FrameTx("app.tx").Drop {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// TestDeterministicFromSeed checks a fault run replays bit-for-bit from its
// seed and diverges for a different seed.
func TestDeterministicFromSeed(t *testing.T) {
	a := dropPattern(42, 4096)
	b := dropPattern(42, 4096)
	if a != b {
		t.Fatal("same seed produced different decision streams")
	}
	if a == dropPattern(43, 4096) {
		t.Fatal("different seeds produced identical decision streams")
	}
	if !strings.Contains(a, "1") || !strings.Contains(a, "0") {
		t.Fatalf("degenerate stream at rate 0.3: %.64s", a)
	}
}

// TestSchedulesIndependent checks adding a second schedule does not perturb
// the first schedule's stream (per-schedule RNG isolation).
func TestSchedulesIndependent(t *testing.T) {
	run := func(extra bool) string {
		eng := sim.NewEngine()
		in := New(eng, 7)
		in.Add(Schedule{Class: FrameDrop, Target: "app.tx", Rate: 0.3})
		if extra {
			in.Add(Schedule{Class: DiskSlow, Target: "disk0", Rate: 0.9, Delay: sim.Millisecond})
		}
		in.Arm()
		var b strings.Builder
		for i := 0; i < 512; i++ {
			if in.FrameTx("app.tx").Drop {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
			in.Disk("disk0") // interleave opportunities for the other class
		}
		return b.String()
	}
	if run(false) != run(true) {
		t.Fatal("installing an unrelated schedule changed the drop stream")
	}
}

// TestTargetMatching checks site selection: exact, prefix and wildcard.
func TestTargetMatching(t *testing.T) {
	cases := []struct {
		target, site string
		want         bool
	}{
		{"", "anything", true},
		{"*", "anything", true},
		{"client*", "client0.tx", true},
		{"client*", "client7.rx", true},
		{"client*", "app.tx", false},
		{"disk0", "disk0", true},
		{"disk0", "disk1", false},
		{"app.tx", "app.tx", true},
		{"app.tx", "app.rx", false},
	}
	for _, c := range cases {
		s := Schedule{Target: c.target}
		if got := s.matches(c.site); got != c.want {
			t.Errorf("target %q vs site %q: got %v, want %v", c.target, c.site, got, c.want)
		}
	}
}

// TestWindowAndCount checks Start/End bounds and the Count cap.
func TestWindowAndCount(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 1)
	in.Add(Schedule{Class: FrameDrop, Target: "*", Rate: 1, Start: sim.Time(sim.Millisecond), End: sim.Time(2 * sim.Millisecond)})
	in.Add(Schedule{Class: DiskError, Target: "disk0", Rate: 1, Count: 2})
	in.Arm()

	if in.FrameTx("a.tx").Drop {
		t.Error("schedule fired before its start")
	}
	eng.Schedule(sim.Duration(1500*sim.Microsecond), func() {
		if !in.FrameTx("a.tx").Drop {
			t.Error("schedule inactive inside its window")
		}
	})
	eng.Schedule(sim.Duration(3*sim.Millisecond), func() {
		if in.FrameTx("a.tx").Drop {
			t.Error("schedule fired after its end")
		}
	})
	eng.Run()

	fired := 0
	for i := 0; i < 10; i++ {
		if in.Disk("disk0").Err {
			fired++
		}
	}
	if fired != 2 {
		t.Errorf("count=2 schedule fired %d times", fired)
	}
}

// TestCPUBurstLifecycle checks bursts occupy the CPU only between Arm and
// Quiesce, and that Quiesce lets the event loop drain.
func TestCPUBurstLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	cpu := sim.NewResource(eng)
	in := New(eng, 3)
	in.Add(Schedule{Class: CPUBurst, Target: "app.cpu", Period: sim.Millisecond, Delay: 200 * sim.Microsecond})
	in.AttachCPU("app.cpu", cpu)

	// Not armed: nothing scheduled, Run returns immediately.
	eng.Run()
	if eng.Now() != 0 {
		t.Fatalf("disarmed injector advanced the clock to %v", eng.Now())
	}

	in.Arm()
	eng.RunFor(10 * sim.Millisecond)
	rep := in.Report()
	if len(rep) != 1 || rep[0].Injected < 5 {
		t.Fatalf("want ~10 bursts over 10ms, got %+v", rep)
	}
	if rep[0].Delayed != sim.Duration(rep[0].Injected)*200*sim.Microsecond {
		t.Errorf("delayed %v inconsistent with %d bursts", rep[0].Delayed, rep[0].Injected)
	}

	// Quiesce must cancel the pending burst so the drain terminates.
	in.Quiesce()
	eng.Run()
	if !in.quiesced {
		t.Error("Quiesce left the injector armed")
	}
}

// TestNewFromSpec checks the constructor wiring, including the empty spec.
func TestNewFromSpec(t *testing.T) {
	eng := sim.NewEngine()
	in, err := NewFromSpec(eng, 0, "")
	if err != nil || in != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", in, err)
	}
	if _, err := NewFromSpec(eng, 0, "garbage"); err == nil {
		t.Fatal("bad spec accepted")
	}
	in, err = NewFromSpec(eng, 0, "frame-loss")
	if err != nil || in == nil {
		t.Fatalf("preset: got (%v, %v)", in, err)
	}
	if in.seed != 1 {
		t.Errorf("zero seed not normalized: %d", in.seed)
	}
	if got := len(in.scheds); got != 1 {
		t.Errorf("schedules = %d, want 1", got)
	}
}
