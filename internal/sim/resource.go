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

	// busy accumulates total service time granted since the last ResetStats.
	busy Duration
	// statsSince is when stats collection (re)started.
	statsSince Time
}

// NewResource returns a resource attached to the engine.
func NewResource(eng *Engine) *Resource {
	return &Resource{eng: eng, statsSince: eng.Now()}
}

// Use enqueues a job needing d of service time and returns the instant it
// completes, invoking done then. A non-positive d completes after any queued
// work with zero service time. done may be nil: the job still holds the
// server for d, but no event marks its end, so Run does not advance the
// clock over a trailing job that nothing waits on (RunUntil its finish
// does).
func (r *Resource) Use(d Duration, done func()) Time {
	if d < 0 {
		d = 0
	}
	now := r.eng.Now()
	start := r.availAt
	if start < now {
		start = now
	}
	finish := start.Add(d)
	r.availAt = finish
	r.busy += d
	if done != nil {
		r.eng.At(finish, done)
	}
	return finish
}

// Busy returns the cumulative service time granted since the last ResetStats.
// Work already admitted counts in full, mirroring how the paper's saturated
// CPUs report 100% utilization while a backlog exists.
func (r *Resource) Busy() Duration { return r.busy }

// Utilization returns busy time divided by elapsed time since the last
// ResetStats, clamped to [0, 1]. It returns 0 before any time has elapsed.
func (r *Resource) Utilization() float64 {
	elapsed := r.eng.Now().Sub(r.statsSince)
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(elapsed)
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
	r.busy = 0
	r.statsSince = r.eng.Now()
	// Busy time for in-flight work past this instant is intentionally
	// credited to the new window only via availAt: if the server is
	// committed beyond now, count that residue as busy.
	if r.availAt > r.statsSince {
		r.busy = r.availAt.Sub(r.statsSince)
	}
}
