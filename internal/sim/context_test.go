package sim

import "testing"

// TestContextPropagation verifies that a request context set during one
// event is inherited by every event scheduled from it, transitively, and
// that it never leaks into unrelated events.
func TestContextPropagation(t *testing.T) {
	eng := NewEngine()
	type req struct{ id int }
	a := &req{1}
	b := &req{2}

	var got []any
	record := func() { got = append(got, eng.Context()) }

	eng.Schedule(0, func() {
		eng.SetContext(a)
		eng.Schedule(10, func() {
			record()
			// Grandchild inherits too.
			eng.Schedule(5, record)
		})
	})
	eng.Schedule(1, func() {
		eng.SetContext(b)
		eng.Schedule(10, record)
	})
	// Scheduled outside any event: no context.
	eng.Schedule(50, record)

	eng.Run()
	want := []any{a, b, a, nil}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPostToCarriesContext verifies a post inherits the request context like
// a local schedule, and keeps propagating it from the handler.
func TestPostToCarriesContext(t *testing.T) {
	e := NewEngine()
	var got, next any
	e.Schedule(0, func() {
		e.SetContext("req-42")
		e.PostAt(e.Now().Add(Microsecond), func(_, _ any, _ int64) {
			got = e.Context()
			e.Schedule(Microsecond, func() { next = e.Context() })
		}, nil, nil, 0)
	})
	e.Run()
	if got != "req-42" || next != "req-42" {
		t.Fatalf("posted context = %v, then %v; want req-42 twice", got, next)
	}
}

// TestContextClearedBetweenEvents checks the engine resets the context when
// an event completes, so top-level scheduling stays context-free.
func TestContextClearedBetweenEvents(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(0, func() { eng.SetContext("x") })
	fired := false
	eng.Schedule(1, func() {
		fired = true
		if eng.Context() != nil {
			t.Errorf("context leaked across events: %v", eng.Context())
		}
	})
	eng.Run()
	if !fired {
		t.Fatal("second event did not fire")
	}
}
