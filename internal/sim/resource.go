package sim

// Resource models a single-server FIFO queueing station: a CPU, a disk arm,
// or a NIC transmit serializer. Work submitted with Use is serviced in
// arrival order, one item at a time, each occupying the server for its stated
// duration. The resource tracks cumulative busy time so experiments can
// report utilization, the central quantity in the paper's Figures 4 and 5.
type Resource struct {
	eng *Engine

	// availAt is the virtual time at which the server next becomes free.
	availAt Time
	// dueAt is availAt counting only the jobs whose earliest start has
	// passed; the two differ only while UseFrom has jobs booked ahead.
	dueAt Time
	// ahead holds the jobs UseFrom booked for an earliest start the clock
	// has not reached, oldest first from index head; aheadD is their
	// service total.
	ahead  []booking
	head   int
	aheadD Duration

	// busy accumulates total service time granted since the last ResetStats.
	busy Duration
	// statsSince is when stats collection (re)started.
	statsSince Time
	// handOver runs before the resource is used or read (see SetHandOver).
	handOver func()
}

// aheadCap sizes a resource's first list of jobs booked ahead: a NIC's
// bookings ahead are its frames still waiting for CPU time, rarely more.
const aheadCap = 64

// booking is a job enqueued ahead of its earliest start.
type booking struct {
	at, finish Time
	d          Duration
}

// NewResource returns a resource attached to the engine.
func NewResource(eng *Engine) *Resource {
	return &Resource{eng: eng, statsSince: eng.Now()}
}

// SetHandOver installs fn to run first in UseFrom, Use, Busy, Utilization
// and ResetStats: a model that holds work due on this resource it has yet
// to enqueue (simnet's quiet frames) enqueues it there, in order, ahead of
// the caller's. fn guards itself against the calls it makes.
func (r *Resource) SetHandOver(fn func()) { r.handOver = fn }

// settle runs the hand-over hook, if any.
func (r *Resource) settle() {
	if r.handOver != nil {
		r.handOver()
	}
}

// Use enqueues a job needing d of service time and returns the instant it
// completes, invoking done then. A non-positive d completes after any queued
// work with zero service time. done may be nil: the job still holds the
// server for d, but no event marks its end, so Run does not advance the
// clock over a trailing job that nothing waits on (RunUntil its finish
// does).
func (r *Resource) Use(d Duration, done func()) Time {
	finish := r.UseFrom(r.eng.Now(), d)
	if done != nil {
		r.eng.At(finish, done)
	}
	return finish
}

// UseFrom enqueues a job needing d of service time that cannot start before
// earliest, and returns the instant it completes. No event marks its end.
// It lets a caller book work ahead (a NIC clocks out a frame the moment its
// CPU time is reserved, from the instant that time ends), provided the
// earliest starts of its jobs rise with the order it enqueues them. A job
// booked ahead counts in the statistics from its earliest start, as if it
// had been enqueued then.
func (r *Resource) UseFrom(earliest Time, d Duration) Time {
	r.settle()
	if len(r.ahead) > 0 {
		r.catchUp()
	}
	start := r.availAt
	if start < earliest {
		start = earliest
	}
	finish := start.Add(d)
	r.availAt = finish
	r.busy += d
	if earliest <= r.eng.Now() {
		r.dueAt = finish
		return finish
	}
	switch {
	case r.ahead == nil:
		r.ahead = make([]booking, 0, aheadCap)
	case r.head > 0 && len(r.ahead) == cap(r.ahead):
		r.ahead, r.head = r.ahead[:copy(r.ahead, r.ahead[r.head:])], 0
	}
	r.ahead = append(r.ahead, booking{earliest, finish, d})
	r.aheadD += d
	return finish
}

// catchUp retires the bookings whose earliest start the clock has reached.
func (r *Resource) catchUp() {
	now := r.eng.Now()
	for r.head < len(r.ahead) && r.ahead[r.head].at <= now {
		b := r.ahead[r.head]
		r.dueAt, r.aheadD = b.finish, r.aheadD-b.d
		r.head++
	}
	if r.head == len(r.ahead) {
		r.ahead, r.head = r.ahead[:0], 0
	}
}

// Abandon drops, at the current instant, every job not yet served: the one
// in service stops and those queued or booked ahead never start, so the
// server is free from now. The busy time is credited back for the service
// dropped, as it was never granted. A job's completion event, if Use posted
// one, is the caller's to cancel.
func (r *Resource) Abandon() {
	r.settle()
	r.catchUp()
	now := r.eng.Now()
	r.busy -= r.aheadD
	if r.dueAt > now {
		r.busy -= r.dueAt.Sub(now)
		r.dueAt = now
	}
	r.availAt = min(r.availAt, now)
	r.ahead, r.head, r.aheadD = r.ahead[:0], 0, 0
}

// Busy returns the cumulative service time granted since the last ResetStats.
// Work already admitted counts in full, mirroring how the paper's saturated
// CPUs report 100% utilization while a backlog exists.
func (r *Resource) Busy() Duration {
	r.settle()
	r.catchUp()
	return r.busy - r.aheadD
}

// Utilization returns busy time divided by elapsed time since the last
// ResetStats, clamped to [0, 1]. It returns 0 before any time has elapsed.
func (r *Resource) Utilization() float64 {
	elapsed := r.eng.Now().Sub(r.statsSince)
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.Busy()) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// ResetStats zeroes the busy time and restarts the measurement window at the
// current virtual time. Queued work remains queued.
// Experiments call this after warm-up so reported utilization reflects only
// the steady-state window.
func (r *Resource) ResetStats() {
	r.settle()
	r.catchUp()
	r.statsSince = r.eng.Now()
	// Busy time for in-flight work past this instant is intentionally
	// credited to the new window: if the server is committed beyond now,
	// count that residue as busy. Jobs booked ahead count in full, once
	// they come due.
	r.busy = r.aheadD
	if r.dueAt > r.statsSince {
		r.busy += r.dueAt.Sub(r.statsSince)
	}
}
