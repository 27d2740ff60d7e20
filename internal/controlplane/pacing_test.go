package controlplane

import (
	"testing"

	"ncache/internal/fault"
	"ncache/internal/sim"
)

// lbnRange returns the n LBNs from, from+1, ….
func lbnRange(from int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = from + int64(i)
	}
	return out
}

// announce sends one remap from agent 0 and drains the engine, returning how
// many times the chunk went out.
func (n *cpNet) announce(t *testing.T, lbn int64) uint64 {
	t.Helper()
	st := &n.agents[0].Stats
	before := st.RemapsSent + st.RemapRetries
	n.agents[0].SendRemap([]int64{lbn})
	n.run(t)
	return st.RemapsSent + st.RemapRetries - before
}

// TestRTOColdStartConvergesAndUnlearns: behind a link that delays every frame
// by three floor intervals, the first announcement is resent (nothing is known
// about the path), the resent request takes no sample, and still the path
// learns — the backed-off wait is handed to the next request, which is sent
// once and measured — so that the 20th announcement, and each of the last
// ten, goes out exactly once. (With a fixed 10 ms timer every one of the 20
// goes out three times or more.) When the delay lifts, a handful of samples
// bring the interval back to the floor, and a lost frame is resent after 10 ms
// again.
func TestRTOColdStartConvergesAndUnlearns(t *testing.T) {
	const announcements, delay = 20, 3 * retryFloor
	n := buildCPNet(t)
	slow := n.inject(delayed("srv0.tx", delay))
	sends := make([]uint64, announcements)
	var lastTen uint64
	for i := range sends {
		sends[i] = n.announce(t, int64(i))
		if i >= announcements-10 {
			lastTen += sends[i]
		}
	}
	t.Logf("sends per announcement behind a %v delay: %v", delay, sends)
	if sends[0] < 2 {
		t.Errorf("the first announcement went out %d times: the delay never outran the floor, the test shows nothing", sends[0])
	}
	if sends[announcements-1] != 1 || lastTen != 10 {
		t.Errorf("the 20th announcement went out %d times and the last ten %d times, want 1 and 10: the path never learned its round trip",
			sends[announcements-1], lastTen)
	}
	rpc := n.agents[0].rpc
	interval := func(path sim.RTT) sim.Duration { return path.Interval(retryFloor, retryCeil) }
	if got := interval(rpc.RTT()); got <= delay || got > 2*delay {
		t.Errorf("interval = %v after %d announcements behind a %v delay, want just above the delay", got, announcements, delay)
	}

	slow.Quiesce()
	const handful = 8
	samples := 0
	for ; interval(rpc.RTT()) > retryFloor && samples < 4*handful; samples++ {
		if got := n.announce(t, int64(announcements+samples)); got != 1 {
			t.Fatalf("announcement %d after the delay lifted went out %d times, want 1", samples, got)
		}
	}
	t.Logf("the delay lifted: interval back at the floor after %d samples", samples)
	if samples > handful {
		t.Errorf("the interval took %d samples to return to the floor, want at most %d", samples, handful)
	}
	n.drop("cp.rx", fault.Schedule{Count: 1})
	n.agents[0].SendRemap([]int64{1 << 20})
	retries := rpc.Retransmits
	n.runFor(t, retryFloor-sim.Microsecond)
	if got := rpc.Retransmits; got != retries {
		t.Fatalf("the lost announcement was resent %d times before the floor interval had passed", got-retries)
	}
	n.runFor(t, 2*sim.Microsecond)
	if got := rpc.Retransmits; got != retries+1 {
		t.Fatalf("the lost announcement was resent %d times at the floor interval, want 1", got-retries)
	}
	n.run(t)
	n.checkDrained(t)
}

// TestRTOEstimatorPerPeer: the control plane keeps one estimator per
// server. With one peer's link delayed, invalidations to it stop
// being resent once its path has learned the delay, while the path to the
// other peer stays at the floor — a frame lost on the way to that one is
// still resent 10 ms later — and the origin's, which is never sent an
// invalidation, knows nothing.
func TestRTOEstimatorPerPeer(t *testing.T) {
	const delay = 3 * retryFloor
	n := buildCPNetOf(t, 3)
	n.inject(delayed("srv1.rx", delay))
	for i := 0; i < 10; i++ {
		n.announce(t, int64(i))
	}
	resends := n.invalResends()
	for i := 10; i < 20; i++ {
		n.announce(t, int64(i))
	}
	if got := n.invalResends(); got != resends {
		t.Errorf("%d invalidations resent over the last ten remaps, want 0: the delayed peer's path never learned", got-resends)
	}
	interval := func(path sim.RTT) sim.Duration { return path.Interval(retryFloor, retryCeil) }
	if got := interval(n.cp.peers[1].RTT()); got <= delay {
		t.Errorf("path to the delayed peer: interval %v, want above the %v delay", got, delay)
	}
	if path := n.cp.peers[2].RTT(); interval(path) != retryFloor || path.SRTT <= 0 {
		t.Errorf("path to the other peer: %+v, interval %v; want sampled, and at the floor", path, interval(path))
	}
	if path := n.cp.peers[0].RTT(); path != (sim.RTT{}) {
		t.Errorf("path to the origin: %+v, want untouched", path)
	}

	n.inject(delayed("srv1.rx", delay), fault.Schedule{Class: fault.FrameDrop, Target: "srv2.rx", Rate: 1, Count: 1})
	n.agents[0].SendRemap([]int64{1 << 20})
	n.runFor(t, retryFloor+sim.Millisecond)
	if got := n.invalResends() - resends; got != 1 {
		t.Fatalf("%d invalidations resent one floor interval after a frame to the undelayed peer was lost, want 1", got)
	}
	n.run(t)
	if got := n.cp.Stats.InvalidationResends - resends; got != 1 {
		t.Fatalf("%d invalidations resent in all, want 1: the delayed peer's was resent too", got)
	}
	n.checkDrained(t)
}

// TestRemapRoundOneInFlight: one remap message is in flight per server. With
// none in flight an announcement leaves in the same event as the call, and
// more than MaxLBNs leave as sequential rounds of at most MaxLBNs each, one
// per round trip (a Restart's replay: 2×MaxLBNs+44 LBNs are 3 rounds). While
// a round is unacknowledged further calls leave the wire untouched; when it
// settles the next MaxLBNs queued go, and the peer learns of the blocks in
// the order they were announced.
func TestRemapRoundOneInFlight(t *testing.T) {
	n := buildCPNet(t)
	ag := n.agents[0]
	// A round trip of a little over 4 ms: under the floor, so nothing is
	// resent, and long enough to stand between two rounds.
	const roundTrip = 4 * sim.Millisecond
	n.inject(delayed("srv0.tx", roundTrip))

	replay := lbnRange(0, 2*MaxLBNs+44)
	ag.SendRemap(replay)
	if ag.Stats.RemapsSent != 1 || ag.round != MaxLBNs || len(ag.queue) != MaxLBNs+44 {
		t.Fatalf("%d LBNs announced on an idle path: %d messages sent, %d LBNs queued; want 1 message of %d and %d queued",
			len(replay), ag.Stats.RemapsSent, len(ag.queue), MaxLBNs, MaxLBNs+44)
	}
	for round := uint64(2); round <= 3; round++ {
		n.runFor(t, roundTrip+sim.Millisecond/2)
		if ag.Stats.RemapsAcked != round-1 || ag.Stats.RemapsSent != round {
			t.Fatalf("%d round trips on: %d rounds acknowledged, %d sent; want %d and %d — one message per round trip",
				round-1, ag.Stats.RemapsAcked, ag.Stats.RemapsSent, round-1, round)
		}
	}
	if ag.round != 44 || len(ag.queue) != 0 {
		t.Fatalf("third round carries %d LBNs with %d queued, want 44 and 0", ag.round, len(ag.queue))
	}
	const calls, perCall = 5, 60
	for i := 0; i < calls; i++ {
		ag.SendRemap(lbnRange(int64(1000*(i+1)), perCall))
	}
	if ag.Stats.RemapsSent != 3 || len(ag.queue) != calls*perCall {
		t.Fatalf("%d calls behind an unacknowledged round: %d messages sent, %d LBNs queued; want 3 and %d",
			calls, ag.Stats.RemapsSent, len(ag.queue), calls*perCall)
	}
	const later = (calls*perCall + MaxLBNs - 1) / MaxLBNs
	n.run(t)
	if ag.Stats.RemapsSent != 3+later || ag.Stats.RemapRetries != 0 || n.cp.Stats.RemapsStarted != 3+later {
		t.Fatalf("%d messages sent (%d resent), %d remaps started; want %d, 0, %d: %d queued LBNs are %d rounds",
			ag.Stats.RemapsSent, ag.Stats.RemapRetries, n.cp.Stats.RemapsStarted, 3+later, 3+later, calls*perCall, later)
	}
	want := replay
	for i := 0; i < calls; i++ {
		want = append(want, lbnRange(int64(1000*(i+1)), perCall)...)
	}
	got := n.invals[1]
	if len(got) != len(want) {
		t.Fatalf("the peer invalidated %d LBNs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("the peer's %d'th invalidated LBN is %d, want %d: not in announce order", i, got[i], want[i])
		}
	}
	n.checkDrained(t)
}

// TestFaultAbandonedRoundFreesQueue: a round given up on ends like one
// acknowledged. With the control plane unreachable until after a round's last
// send, RemapsAbandoned counts it, the queue keeps filling — the LBN past
// MaxLBNs waits there behind the doomed round — and the rounds that start at
// the moment of giving up carry everything queued. A round that waited for
// its ack would hold those LBNs for ever.
func TestFaultAbandonedRoundFreesQueue(t *testing.T) {
	n := buildCPNet(t)
	ag := n.agents[0]
	lastSend, giveUp := budget(retrySends-1), budget(retrySends)
	n.drop("cp*", fault.Schedule{Start: n.eng.Now(), End: n.eng.Now().Add(lastSend + retryFloor)})

	doomed := lbnRange(0, MaxLBNs+1)
	ag.SendRemap(doomed)
	const calls, perCall = 4, 50
	for i := 0; i < calls; i++ {
		i := i
		n.eng.Schedule(sim.Duration(i+1)*lastSend/(calls+1), func() {
			ag.SendRemap(lbnRange(int64(1000*(i+1)), perCall))
		})
	}
	n.runFor(t, giveUp-sim.Microsecond)
	const queued = 1 + calls*perCall
	if ag.Stats.RemapsSent != 1 || ag.rpc.Retransmits != retrySends-1 || len(ag.queue) != queued {
		t.Fatalf("just before the budget ends: %d rounds sent, %d resends, %d LBNs queued; want 1, %d, %d",
			ag.Stats.RemapsSent, ag.rpc.Retransmits, len(ag.queue), retrySends-1, queued)
	}
	n.run(t)
	const later = (queued + MaxLBNs - 1) / MaxLBNs
	st := ag.Stats
	if st.RemapsAbandoned != 1 || st.LBNsAbandoned != MaxLBNs {
		t.Errorf("RemapsAbandoned = %d, LBNsAbandoned = %d; want 1, %d", st.RemapsAbandoned, st.LBNsAbandoned, MaxLBNs)
	}
	if st.RemapsSent != 1+later || st.RemapsAcked != later || st.LBNsAnnounced != queued {
		t.Errorf("after the outage: %d rounds sent, %d acknowledged, %d LBNs announced; want %d, %d, %d — everything queued meanwhile",
			st.RemapsSent, st.RemapsAcked, st.LBNsAnnounced, 1+later, later, queued)
	}
	if got := len(n.invals[1]); got != queued {
		t.Errorf("the peer invalidated %d LBNs, want the %d queued behind the doomed round", got, queued)
	}
	n.checkDrained(t)
}
