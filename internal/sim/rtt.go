package sim

// rttShift is the estimator's smoothing gain as a right shift: a sample moves
// SRTT and RTTVar half-way to it. RFC 6298's 1/8 and 1/4 are tuned for a
// sample per segment on a path whose load changes slowly; the paths here —
// a control-plane exchange, an RPC call, one timed segment per TCP flight —
// yield tens of samples a second under load and would take over a second to
// un-learn a load that has gone. TCP measured the same or better with 1/2 as
// with 1/8 and 1/4, so the three users share the one gain.
const rttShift = 1

// RTT estimates the round trip of one path for the retransmission timer that
// guards it (RFC 6298's shape): the control plane's request loop, a TCP
// connection's RTO, a datagram RPC client's resend. The caller owns the
// bounds — its old fixed timer is the floor — and the rule that only an
// exchange sent once is sampled (Karn). The zero value is a path nothing is
// known about: it resends at the floor.
type RTT struct {
	SRTT, RTTVar Duration
	// Backed is the longest interval a timer on this path has backed off to
	// since the last sample. When the true round trip exceeds the interval
	// every first send is resent, and Karn's rule then never samples: the
	// next exchange must start from the backed-off interval, or the path
	// never learns (RFC 6298 §5.7).
	Backed Duration
}

// Interval is what an exchange starting now waits before its first resend:
// the estimate (RFC 6298's srtt + 4·rttvar) or the remembered backoff, within
// [floor, ceil]. The margin over SRTT is never less than an eighth of it
// (RFC 6298's clock granularity G, scaled to the path): on a path that
// answers in exactly the same time every time RTTVar decays to zero, and a
// timer set to the round trip itself fires in the same instant as the reply
// it is waiting for.
func (e *RTT) Interval(floor, ceil Duration) Duration {
	return min(max(e.SRTT+max(4*e.RTTVar, e.SRTT>>3), e.Backed, floor), ceil)
}

// Sample folds in one round trip measured on an exchange that was sent once.
func (e *RTT) Sample(d Duration) {
	if e.SRTT == 0 {
		e.SRTT, e.RTTVar = d, d/2
	} else {
		dev := e.SRTT - d
		if dev < 0 {
			dev = -dev
		}
		e.RTTVar += (dev - e.RTTVar) >> rttShift
		e.SRTT += (d - e.SRTT) >> rttShift
	}
	e.Backed = 0
}

// BackOff records that a timer on this path fired and its next wait is d.
func (e *RTT) BackOff(d Duration) {
	e.Backed = max(e.Backed, d)
}
