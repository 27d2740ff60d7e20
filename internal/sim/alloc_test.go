package sim

import "testing"

// TestEventDispatchZeroAllocs is the CI allocation-regression gate for the
// scheduler: once the free list is primed, a schedule/fire cycle must not
// touch the heap at all. A regression here shows up as GC pressure on every
// macro experiment, so it fails loudly.
func TestEventDispatchZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Prime the free list and the heap slice.
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fn)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state event dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestEventCancelZeroAllocs extends the gate to the timer pattern sunrpc
// retransmission leans on: schedule, cancel, reschedule.
func TestEventCancelZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		id := e.Schedule(1000, fn)
		e.Schedule(1, fn)
		if !e.Cancel(id) {
			t.Fatal("Cancel failed")
		}
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel cycle allocates %.1f objects/op, want 0", avg)
	}
}

// TestEventIDStaleAfterReuse pins the ABA guarantee the free list depends
// on: an EventID from a fired event must not cancel the object's next
// tenant.
func TestEventIDStaleAfterReuse(t *testing.T) {
	e := NewEngine()
	var stale EventID
	stale = e.Schedule(1, func() {})
	e.Run()
	// The freed object is reused for the next schedule.
	ran := false
	e.Schedule(1, func() { ran = true })
	if e.Cancel(stale) {
		t.Fatal("stale EventID canceled a recycled event")
	}
	e.Run()
	if !ran {
		t.Fatal("recycled event did not run")
	}
}

func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i), fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		e.Run()
	}
}

// BenchmarkEventHeap64 exercises dispatch with a populated heap (64 timers
// in flight), the regime the macro experiments run in.
func BenchmarkEventHeap64(b *testing.B) {
	e := NewEngine()
	pending := 0
	tick := func() {
		pending--
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pending < 64 {
			e.Schedule(Duration(1+pending%37), tick)
			pending++
		}
		e.RunFor(5)
	}
}

func BenchmarkEventCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i), fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.Schedule(1000, fn)
		e.Cancel(id)
		e.Run()
	}
}

// TestResourceUseZeroAllocs gates Resource.Use: a job with a done costs one
// pooled event and a job without one costs nothing, so neither allocates
// beyond the caller's own done.
func TestResourceUseZeroAllocs(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng)
	fired := 0
	done := func() { fired++ }
	const jobs = 64
	burst := func() {
		for i := 0; i < jobs; i++ {
			r.Use(Duration(i), done)
		}
		r.Use(1, nil)
		eng.Run()
	}
	burst() // prime the event free list and the heap slice
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Errorf("%d Resource.Use jobs allocate %.0f objects, want 0", jobs+1, avg)
	}
	// AllocsPerRun adds one warm-up call of its own.
	if fired != 102*jobs || eng.Pending() != 0 {
		t.Errorf("done fired %d (want %d), %d events pending", fired, 102*jobs, eng.Pending())
	}
}

// TestPostToArgsZeroAllocs gates the argument-carrying post: with the handler
// bound ahead of time the pooled event carries the arguments, so a cross-node
// hop costs no object once the free list is primed.
func TestPostToArgsZeroAllocs(t *testing.T) {
	eng := NewEngine()
	type frame struct{ hops int }
	got, sum := 0, int64(0)
	h := Handler(func(a, b any, n int64) {
		a.(*frame).hops++
		got += b.(*frame).hops
		sum += n
	})
	fa, fb := &frame{}, &frame{hops: 1}
	const posts = 32
	burst := func() {
		for i := 0; i < posts; i++ {
			eng.PostAt(eng.Now().Add(Duration(i)), h, fa, fb, int64(i))
		}
		eng.Run()
	}
	burst() // prime the event free list and the heap slice
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Errorf("%d Post calls allocate %.1f objects, want 0", posts, avg)
	}
	if want := 102 * posts; fa.hops != want || got != want || sum != int64(102*posts*(posts-1)/2) {
		t.Errorf("handler ran %d times (want %d), args %d/%d", fa.hops, want, got, sum)
	}
}
