package controlplane

import "ncache/internal/sim"

// The protocol's retransmission bounds. A request is resent after its path's
// interval (a sim.RTT estimate: one per agent, one per peer on the server) —
// DefaultRetryRTO on a path that measures less — and every resend doubles
// that request's wait, up to maxRetryRTO, which no round trip the committed
// sweeps measure comes near (131 ms at 8 servers). DefaultRetryMax sends is
// the budget of a remap announcement and of one peer's invalidation: from the
// floor, 10 + 20 + 40 + 80 + 160 + 160 = 470 ms; on a path that has learned a
// longer interval, at most DefaultRetryMax × maxRetryRTO.
const (
	DefaultRetryRTO = 10 * sim.Millisecond
	maxRetryRTO     = 160 * sim.Millisecond
	DefaultRetryMax = 6
)

// requester is the state a request belongs to: a remap round, or one peer's
// invalidation.
type requester interface {
	// transmit sends the request once, and is where the owner counts sends;
	// again is false on the first.
	transmit(again bool)
	// abandon runs once, if the last permitted send went unanswered.
	abandon()
}

// request is the protocol's only retransmission loop, embedded in the state
// that owns it: transmit now, again after the path's interval and then after
// twice the wait before, until settled, and at the timer after the max'th
// send settle and abandon. Every send arms exactly one timer, and a timer
// that finds the request settled does nothing — it is never cancelled — so
// the events a request costs are a function of its sends alone. tick is
// bound once per request, so a send allocates nothing.
type request struct {
	eng     *sim.Engine
	owner   requester
	path    *sim.RTT
	max     int
	tries   int
	settled bool
	sent    sim.Time
	wait    sim.Duration
	tick    func()
}

// start makes the first transmission of at most max over path.
func (q *request) start(eng *sim.Engine, owner requester, path *sim.RTT, max int) {
	q.eng, q.owner, q.path, q.max, q.tick = eng, owner, path, max, q.fire
	q.sent, q.wait = eng.Now(), path.Interval(DefaultRetryRTO, maxRetryRTO)
	q.send()
}

func (q *request) send() {
	q.owner.transmit(q.tries > 0)
	q.tries++
	q.eng.Schedule(q.wait, q.tick)
}

// fire is the retry timer.
func (q *request) fire() {
	switch {
	case q.settled:
	case q.tries < q.max:
		q.wait = min(2*q.wait, maxRetryRTO)
		q.path.BackOff(q.wait)
		q.send()
	default:
		q.settled = true
		q.owner.abandon()
	}
}

// settle ends the loop on the response to the request, and samples the
// path's round trip if the response can only be to the one send (Karn's
// rule). It reports false when there was nothing to end: the request has
// settled already.
func (q *request) settle() bool {
	if q.settled {
		return false
	}
	q.settled = true
	if q.tries == 1 {
		q.path.Sample(q.eng.Now().Sub(q.sent))
	}
	return true
}
