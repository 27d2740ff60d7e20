package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", e.Now())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.RunUntil(10)
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10 (negative delay must not rewind)", e.Now())
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {})
	e.RunUntil(40)
	if e.Now() != 40 {
		t.Fatalf("Now = %v, want 40", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		e.Schedule(10, tick)
	}
	e.Schedule(10, tick)
	e.RunFor(95)
	if count != 9 {
		t.Fatalf("ticks = %d, want 9", count)
	}
	if e.Now() != 95 {
		t.Fatalf("Now = %v, want 95", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.Schedule(10, func() { ran = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel reported failure for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("double Cancel reported success")
	}
	e.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 1) })
	id := e.Schedule(20, func() { order = append(order, 2) })
	e.Schedule(30, func() { order = append(order, 3) })
	e.Cancel(id)
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

func TestEnginePropertyEventsFireInTimeOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Duration(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	if got := (1500 * Microsecond).String(); got != "1.5ms" {
		t.Fatalf("String = %q, want 1.5ms", got)
	}
}

// TestKeyedPostOrderZeroAllocs: a keyed post sorts among the events due at
// its instant where an ordinary post made at its posted instant, with the
// sequence number it reserved, would have; it runs in the context it names;
// a cancel and a new keyed post move it; ordinary posts stay FIFO around it.
// Keyed posts allocate nothing once the free list is primed.
func TestKeyedPostOrderZeroAllocs(t *testing.T) {
	e := NewEngine()
	var order []int64
	var ctxs []any
	rec := Handler(func(_, _ any, n int64) { order, ctxs = append(order, n), append(ctxs, e.Context()) })
	// Reserved at 0, standing in for a post at 10 (an arrival at 10 that
	// would post a delivery for 20).
	seq := e.Reserve()
	e.PostAt(20, rec, nil, nil, 1) // posted at 0: ahead of anything posted later
	e.Schedule(10, func() {
		e.PostAt(20, rec, nil, nil, 3) // posted at 10, after the reservation
		e.PostAt(20, rec, nil, nil, 4)
	})
	e.Schedule(15, func() { e.PostAt(20, rec, nil, nil, 5) })
	e.PostKeyed(Key{At: 20, Posted: 10, Seq: seq}, "keyed", rec, nil, nil, 2)
	// Keyed for 30 as of 30, then moved to sort as a post made at 5.
	e.Cancel(e.PostKeyed(Key{At: 30, Posted: 30, Seq: e.Reserve()}, "stale", rec, nil, nil, -1))
	e.PostKeyed(Key{At: 20, Posted: 5, Seq: e.Reserve()}, "moved", rec, nil, nil, 0)
	e.Run()
	if want := []int64{1, 0, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if ctxs[1] != "moved" || ctxs[2] != "keyed" || ctxs[0] != nil {
		t.Fatalf("contexts = %v, want the keyed posts' own", ctxs)
	}

	burst := func() {
		now := e.Now()
		e.Cancel(e.PostKeyed(Key{At: now + 10, Posted: now + 10, Seq: e.Reserve()}, nil, rec, nil, nil, 0))
		e.PostKeyed(Key{At: now + 5, Posted: now, Seq: e.Reserve()}, nil, rec, nil, nil, 0)
		order, ctxs = order[:0], ctxs[:0]
		e.Run()
	}
	burst()
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Errorf("a keyed post, its cancel and its replacement allocate %.1f objects, want 0", avg)
	}
}
