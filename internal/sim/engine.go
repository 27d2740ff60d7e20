// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every experiment in this repository: protocol stacks,
// CPUs, NICs and disks are modeled as event callbacks and queueing resources
// on a shared virtual clock. Determinism comes from a total order on events
// (time, then the instant each was posted, then insertion sequence) and from
// seeded random sources; running the same experiment twice yields
// byte-identical results.
//
// The scheduler is a concrete binary min-heap over *event (no container/heap,
// no interface boxing) with a free list of event objects: in steady state a
// schedule/fire cycle performs zero heap allocations, which is what lets the
// macro experiments run millions of simulated requests at wall-clock speeds
// bounded by the model, not the allocator.
package sim

import (
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time has no relation to wall-clock time.
type Time int64

// Duration is a span of virtual time in nanoseconds. It deliberately mirrors
// time.Duration so that literals such as 5*sim.Microsecond read naturally.
type Duration int64

// Convenient duration units, mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// String formats the duration using time.Duration notation.
func (d Duration) String() string { return time.Duration(d).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the time as an offset from the simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled callback. Events are pooled: once fired or canceled
// the object returns to the engine's free list and its generation counter
// advances, so a stale EventID can never cancel the object's next tenant.
type event struct {
	Key // due instant, then the instant posted, then FIFO (see Key)
	fn  func()
	ctx any    // request context captured at scheduling time
	idx int    // heap index, -1 once popped or canceled
	gen uint64 // incarnation counter, bumped on every recycle
	// h, when set, runs instead of fn with the arguments Post carried, so a
	// post needs no closure either.
	h    Handler
	a, b any
	n    int64
	life *Life // the Life it was posted for, if any
}

// Handler is the receiving side of Post: a function bound once (per
// network, say) that is handed the arguments each post carried. Pointers
// travel in a and b without boxing.
type Handler func(a, b any, n int64)

// Life is one incarnation of something that can die with work scheduled — a
// node from boot to kill. An event tied to a Life (EventID.For) is dropped
// unrun if the Life has ended by the time it is due.
type Life struct{ ended bool }

// End ends the life: none of its pending events will run.
func (l *Life) End() { l.ended = true }

// EventID identifies a scheduled event so it can be canceled. It pins the
// event's incarnation: after the event fires (or is canceled) and its object
// is reused for a later schedule, the stale ID no longer matches.
type EventID struct {
	ev  *event
	gen uint64
}

// For ties the event just posted to l, and returns its ID.
func (id EventID) For(l *Life) EventID { id.ev.life = l; return id }

// Engine is a discrete-event simulation loop. The zero value is not usable;
// construct one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events []*event // binary min-heap ordered by (at, posted, seq)
	free   []*event // recycled event objects
	// processed counts events executed.
	processed uint64
	// running is the key of the event executing, if firing.
	running Key
	firing  bool
	// cur is the request context of the event currently executing. Every
	// event scheduled while it runs inherits it, so a context set once at
	// request issue propagates across the whole causal chain of events —
	// through protocol stacks, queues and even "wire" hops — without any
	// signature changes. Observation only: it never affects event order.
	cur any
}

// Context returns the request context of the currently executing event, or
// nil outside event execution (and for events scheduled outside one).
func (e *Engine) Context() any { return e.cur }

// SetContext replaces the current request context. Events scheduled from
// this point on (until the enclosing event returns, or a further call)
// carry the new context. Typically called once per request at issue time.
func (e *Engine) SetContext(ctx any) { e.cur = ctx }

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// RunStats is the engine's counter snapshot. Only Events is ever non-zero;
// the other fields are inert shims for benchmarks/ncmark, which reads the
// epoch counters of the deleted sharded engine (DESIGN.md §11).
type RunStats struct {
	Events       uint64
	Epochs       uint64
	StagedAdmits uint64
	BarrierNs    int64
}

// RunStats reports the events executed so far.
func (e *Engine) RunStats() RunStats { return RunStats{Events: e.processed} }

// Schedule runs fn after delay d. A negative delay is treated as zero.
// Events scheduled for the same instant run in scheduling order.
func (e *Engine) Schedule(d Duration, fn func()) EventID {
	return e.At(e.now.Add(d), fn)
}

// At runs fn at absolute time t. If t is in the past, fn runs at the current
// time (but never before events already due). The event inherits the
// current request context.
func (e *Engine) At(t Time, fn func()) EventID {
	id := e.post(Key{At: t, Posted: e.now, Seq: e.seq}, e.cur)
	e.seq++
	id.ev.fn = fn
	return id
}

// post queues a pooled event at k in context ctx. A due instant in the past
// becomes now.
func (e *Engine) post(k Key, ctx any) EventID {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.Key = k
	ev.At = max(k.At, e.now)
	ev.ctx = ctx
	e.push(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// Key is a place in the engine's total order: the instant an event is due,
// the instant it was posted, and the sequence number it took then. An
// ordinary post is keyed (due, now, next sequence number), and since the
// sequence rises with the clock, that is (due, sequence) order.
type Key struct {
	At, Posted Time
	Seq        uint64
}

// Before reports whether k sorts ahead of l.
func (k Key) Before(l Key) bool {
	if k.At != l.At {
		return k.At < l.At
	}
	if k.Posted != l.Posted {
		return k.Posted < l.Posted
	}
	return k.Seq < l.Seq
}

// Running returns the key of the event executing. Outside one it is a key
// after every event due by now: all of them have run.
func (e *Engine) Running() Key {
	if e.firing {
		return e.running
	}
	return Key{At: e.now, Posted: MaxTime, Seq: math.MaxUint64}
}

// Reserve takes the next sequence number, for a keyed post made later.
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq - 1
}

// PostKeyed is PostAt at k.At in context ctx, sorted among the events due
// then as a post made at instant k.Posted, when the sequence stood at k.Seq
// (from Reserve), would be: a model can post now, or move by Cancel and
// PostKeyed, the event a chain of earlier events would have posted.
func (e *Engine) PostKeyed(k Key, ctx any, h Handler, a, b any, n int64) EventID {
	id := e.post(k, ctx)
	id.ev.h, id.ev.a, id.ev.b, id.ev.n = h, a, b, n
	return id
}

// PostAt schedules h(a, b, n) at t, like At. The arguments ride in the
// pooled event, so a post with a handler bound ahead of time allocates
// nothing.
func (e *Engine) PostAt(t Time, h Handler, a, b any, n int64) EventID {
	id := e.At(t, nil)
	id.ev.h, id.ev.a, id.ev.b, id.ev.n = h, a, b, n
	return id
}

// Cancel removes a pending event. Canceling an already-fired or canceled
// event is a no-op and reports false.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.idx < 0 {
		return false
	}
	e.removeAt(ev.idx)
	e.recycle(ev)
	return true
}

// Pending reports the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.events) }

// recycle resets a popped or canceled event and returns it to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.ctx = nil
	ev.life = nil
	if ev.h != nil {
		ev.h, ev.a, ev.b = nil, nil, nil
	}
	ev.idx = -1
	ev.gen++
	e.free = append(e.free, ev)
}

// push inserts an event and restores the heap invariant bottom-up.
func (e *Engine) push(ev *event) {
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	e.siftUp(ev.idx)
}

// pop removes and returns the earliest event.
func (e *Engine) pop() *event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].idx = 0
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	root.idx = -1
	return root
}

// removeAt deletes the event at heap index i.
func (e *Engine) removeAt(i int) {
	h := e.events
	n := len(h) - 1
	removed := h[i]
	if i != n {
		h[i] = h[n]
		h[i].idx = i
		h[n] = nil
		e.events = h[:n]
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	} else {
		h[n] = nil
		e.events = h[:n]
	}
	removed.idx = -1
}

// before reports whether x fires ahead of y.
func (x *event) before(y *event) bool { return x.Key.Before(y.Key) }

// siftUp moves the event at index i toward the root until ordered.
func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if p.before(ev) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

// siftDown moves the event at index i toward the leaves until ordered. It
// reports whether the event moved.
func (e *Engine) siftDown(i int) bool {
	h := e.events
	n := len(h)
	ev := h[i]
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h[right].before(h[left]) {
			least = right
		}
		if ev.before(h[least]) {
			break
		}
		h[i] = h[least]
		h[i].idx = i
		i = least
	}
	h[i] = ev
	ev.idx = i
	return i != start
}

// step executes the earliest pending event due by until. It reports false
// when none is, having advanced the clock to until if an event lies beyond.
func (e *Engine) step(until Time) bool {
	if len(e.events) == 0 {
		return false
	}
	if e.events[0].At > until {
		// Advance the clock to the horizon without firing the event.
		e.now = until
		return false
	}
	popped := e.pop()
	e.now = popped.At
	e.processed++
	e.running, e.firing = popped.Key, true
	e.fire(popped)
	e.firing = false
	return true
}

// fire runs a popped event. The object is recycled before fn runs: the
// common schedule-from-an-event pattern then reuses it, and any stale
// EventID is fenced off by the generation bump.
func (e *Engine) fire(ev *event) {
	fn, ctx := ev.fn, ev.ctx
	h, a, b, n := ev.h, ev.a, ev.b, ev.n
	dead := ev.life != nil && ev.life.ended
	e.recycle(ev)
	switch {
	case dead:
	case h != nil:
		e.cur = ctx
		h(a, b, n)
		e.cur = nil
	case fn != nil:
		e.cur = ctx
		fn()
		e.cur = nil
	}
}

// Run executes events until none remain. The error is always nil: it is kept
// so that benchmarks/ncmark, which checks it, compiles unchanged (DESIGN.md
// §11); everything else calls Run as a bare statement.
func (e *Engine) Run() error {
	for e.step(MaxTime) {
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain pending. The error is always
// nil, as Run's is.
func (e *Engine) RunUntil(t Time) error {
	for e.step(t) {
	}
	if e.now < t {
		e.now = t
	}
	return nil
}

// RunFor executes events for a span d of virtual time from now; its error,
// like Run's, is always nil.
func (e *Engine) RunFor(d Duration) error {
	return e.RunUntil(e.now.Add(d))
}
