package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceSerializesWork(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var done []Time
	r.Use(10, func() { done = append(done, e.Now()) })
	r.Use(10, func() { done = append(done, e.Now()) })
	r.Use(5, func() { done = append(done, e.Now()) })
	e.Run()
	want := []Time{10, 20, 25}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var finish Time
	r.Use(10, nil)
	e.Schedule(50, func() {
		r.Use(10, func() { finish = e.Now() })
	})
	e.Run()
	if finish != 60 {
		t.Fatalf("finish = %v, want 60 (service starts when submitted)", finish)
	}
	if r.Busy() != 20 {
		t.Fatalf("Busy = %v, want 20", r.Busy())
	}
	// 20ns busy over 60ns elapsed.
	if u := r.Utilization(); u < 0.33 || u > 0.34 {
		t.Fatalf("Utilization = %v, want ~0.333", u)
	}
}

func TestResourceSaturatedUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	for i := 0; i < 100; i++ {
		r.Use(10, nil)
	}
	e.RunUntil(1000)
	if u := r.Utilization(); u != 1.0 {
		t.Fatalf("Utilization = %v, want 1.0 for back-to-back work", u)
	}
	if r.Busy() != 1000 {
		t.Fatalf("Busy = %v, want 1µs", r.Busy())
	}
}

// TestResourceUseWithoutDoneFiresNothing pins what a job nothing waits on
// costs: no event, yet it holds the server for its whole service time.
func TestResourceUseWithoutDoneFiresNothing(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	if at := r.Use(10, nil); at != 10 {
		t.Fatalf("Use(10, nil) finishes at %v, want 10", at)
	}
	if n := e.Pending(); n != 0 {
		t.Fatalf("Use(10, nil) left %d pending events, want 0", n)
	}
	var finish Time
	if at := r.Use(5, func() { finish = e.Now() }); at != 15 {
		t.Fatalf("second job finishes at %v, want 15", at)
	}
	e.Run()
	if finish != 15 || e.Processed() != 1 {
		t.Fatalf("second job done at %v after %d events, want 15 after 1 (it waits out the first)",
			finish, e.Processed())
	}
}

func TestResourceZeroDuration(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	ran := false
	r.Use(0, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("zero-duration job did not complete")
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestResourceResetStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Use(100, nil)
	e.RunUntil(100)
	r.ResetStats()
	e.Schedule(100, func() {})
	e.Run()
	if u := r.Utilization(); u != 0 {
		t.Fatalf("Utilization after reset+idle = %v, want 0", u)
	}
	if r.Busy() != 0 {
		t.Fatalf("Busy after reset = %v, want 0", r.Busy())
	}
}

func TestResourceResetStatsMidJob(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Use(100, nil)
	e.RunUntil(50)
	r.ResetStats()
	e.RunUntil(100)
	// The remaining 50ns of the in-flight job belong to the new window.
	if r.Busy() != 50 {
		t.Fatalf("Busy = %v, want 50 (residual in-flight work)", r.Busy())
	}
	if u := r.Utilization(); u != 1.0 {
		t.Fatalf("Utilization = %v, want 1.0", u)
	}
}

// TestResourceQueueHighWater checks a backlog through the finish instants
// Use returns: five jobs admitted at once queue behind each other, and once
// the clock passes the last one the server starts the next job at once.
func TestResourceQueueHighWater(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	for i := 1; i <= 5; i++ {
		if at := r.Use(10, nil); at != Time(10*i) {
			t.Fatalf("job %d finishes at %v, want %v", i, at, Time(10*i))
		}
	}
	e.RunUntil(60)
	if at := r.Use(10, nil); at != 70 {
		t.Fatalf("job after the drained backlog finishes at %v, want 70", at)
	}
}

func TestResourcePropertyBusyEqualsSumOfService(t *testing.T) {
	f := func(durs []uint8) bool {
		e := NewEngine()
		r := NewResource(e)
		var sum Duration
		var last Time
		for _, d := range durs {
			last = r.Use(Duration(d), nil)
			sum += Duration(d)
		}
		return r.Busy() == sum && last == Time(sum) && e.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Fatal("Intn of non-positive bound must return 0")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

// TestResourceUseFromCountsFromEarliestStart: a job booked ahead of its
// earliest start queues like any other, but counts in the statistics only
// from that start. Two jobs of 10 are booked at 0 to start at 100 and 105;
// a reset at 50 credits the new window with their service in full, a
// reading at 104 leaves out the one not yet due, and a reset at 115 credits
// what is left of the second.
func TestResourceUseFromCountsFromEarliestStart(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	if f1, f2 := r.UseFrom(100, 10), r.UseFrom(105, 10); f1 != 110 || f2 != 120 {
		t.Fatalf("finishes %v, %v; want 110, 120", f1, f2)
	}
	if r.Busy() != 0 {
		t.Fatalf("busy %v before either job is due, want 0", r.Busy())
	}
	for _, c := range []struct {
		at    Time
		reset bool
		busy  Duration
	}{{50, true, 0}, {104, false, 10}, {115, true, 5}, {120, false, 5}} {
		e.RunUntil(c.at)
		if c.reset {
			r.ResetStats()
		}
		if r.Busy() != c.busy {
			t.Fatalf("busy %v at %v, want %v", r.Busy(), c.at, c.busy)
		}
	}
	if r.Utilization() != 1 {
		t.Fatalf("utilization %v over [115, 120], want 1", r.Utilization())
	}
}

// TestResourceAbandon drops a backlog mid-service: the job in service stops,
// the queued and booked-ahead ones never start, the busy time keeps only
// the service given, and the next job starts at the abandon instant.
func TestResourceAbandon(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Use(10, nil)
	r.Use(10, nil)
	var finish Time
	e.Schedule(5, func() {
		r.UseFrom(30, 3)
		r.Abandon()
		r.Use(2, func() { finish = e.Now() })
	})
	e.Run()
	if finish != 7 {
		t.Fatalf("finish = %v, want 7 (the backlog died at 5)", finish)
	}
	e.RunUntil(40)
	if r.Busy() != 7 {
		t.Fatalf("Busy = %v, want 7 (5 served before the abandon, 2 after)", r.Busy())
	}
}
