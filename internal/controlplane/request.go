package controlplane

import "ncache/internal/sim"

// The protocol's retransmission bounds: a request is resent every
// DefaultRetryRTO until it settles. DefaultRetryMax sends is the budget of a
// remap announcement and of one peer's invalidation; a member-set fetch gets
// twice that and a registration four times.
const (
	DefaultRetryRTO = 10 * sim.Millisecond
	DefaultRetryMax = 6
)

// requester is the state a request belongs to: an agent's registration, a
// remap chunk, one peer's invalidation, a resolver's member-set fetch.
type requester interface {
	// transmit sends the request once, and is where the owner counts sends;
	// again is false on the first.
	transmit(again bool)
	// abandon runs once, if the last permitted send went unanswered.
	abandon()
}

// request is the protocol's only retransmission loop, embedded in the state
// that owns it: transmit now, again every DefaultRetryRTO until settled, and
// at the timer after the max'th send settle and abandon. Every send arms
// exactly one timer, and a timer that finds the request settled does nothing
// — it is never cancelled — so the events a request costs are a function of
// its sends alone. tick is bound once per request, so a send allocates
// nothing.
type request struct {
	eng     *sim.Engine
	owner   requester
	max     int
	tries   int
	settled bool
	tick    func()
}

// start makes the first transmission of at most max.
func (q *request) start(eng *sim.Engine, owner requester, max int) {
	q.eng, q.owner, q.max, q.tick = eng, owner, max, q.fire
	q.send()
}

func (q *request) send() {
	q.owner.transmit(q.tries > 0)
	q.tries++
	q.eng.Schedule(DefaultRetryRTO, q.tick)
}

// fire is the retry timer.
func (q *request) fire() {
	switch {
	case q.settled:
	case q.tries < q.max:
		q.send()
	default:
		q.settled = true
		q.owner.abandon()
	}
}

// settle ends the loop on the response to the request — the one place a
// round-trip sample can be taken. It reports false when there was nothing to
// end: the request never started, or has settled already.
func (q *request) settle() bool {
	if q.tries == 0 || q.settled {
		return false
	}
	q.settled = true
	return true
}
