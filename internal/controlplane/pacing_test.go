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
	const announcements, delay = 20, 3 * DefaultRetryRTO
	n := buildCPNet(t)
	n.register(t)
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
	path := &n.agents[0].path
	if got := path.Interval(DefaultRetryRTO, maxRetryRTO); got <= delay || got > 2*delay {
		t.Errorf("interval = %v after %d announcements behind a %v delay, want just above the delay", got, announcements, delay)
	}

	slow.Quiesce()
	const handful = 8
	samples := 0
	for ; path.Interval(DefaultRetryRTO, maxRetryRTO) > DefaultRetryRTO && samples < 4*handful; samples++ {
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
	retries := n.agents[0].Stats.RemapRetries
	n.runFor(t, DefaultRetryRTO-sim.Microsecond)
	if got := n.agents[0].Stats.RemapRetries; got != retries {
		t.Fatalf("the lost announcement was resent %d times before the floor interval had passed", got-retries)
	}
	n.runFor(t, 2*sim.Microsecond)
	if got := n.agents[0].Stats.RemapRetries; got != retries+1 {
		t.Fatalf("the lost announcement was resent %d times at the floor interval, want 1", got-retries)
	}
	n.run(t)
	n.checkDrained(t)
}

// TestRTOEstimatorPerPeer: the control plane keeps one estimator per
// registered server. With one peer's link delayed, invalidations to it stop
// being resent once its path has learned the delay, while the path to the
// other peer stays at the floor — a frame lost on the way to that one is
// still resent 10 ms later — and the origin's, which is never sent an
// invalidation, knows nothing.
func TestRTOEstimatorPerPeer(t *testing.T) {
	const delay = 3 * DefaultRetryRTO
	n := buildCPNetOf(t, 3)
	n.register(t)
	n.inject(delayed("srv1.rx", delay))
	for i := 0; i < 10; i++ {
		n.announce(t, int64(i))
	}
	resends := n.cp.Stats.InvalidationResends
	for i := 10; i < 20; i++ {
		n.announce(t, int64(i))
	}
	if got := n.cp.Stats.InvalidationResends; got != resends {
		t.Errorf("%d invalidations resent over the last ten remaps, want 0: the delayed peer's path never learned", got-resends)
	}
	if got := n.cp.paths[1].Interval(DefaultRetryRTO, maxRetryRTO); got <= delay {
		t.Errorf("path to the delayed peer: interval %v, want above the %v delay", got, delay)
	}
	if got := n.cp.paths[2].Interval(DefaultRetryRTO, maxRetryRTO); got != DefaultRetryRTO || n.cp.paths[2].SRTT <= 0 {
		t.Errorf("path to the other peer: %+v, interval %v; want sampled, and at the floor", n.cp.paths[2], got)
	}
	if n.cp.paths[0] != (sim.RTT{}) {
		t.Errorf("path to the origin: %+v, want untouched", n.cp.paths[0])
	}

	n.inject(delayed("srv1.rx", delay), fault.Schedule{Class: fault.FrameDrop, Target: "srv2.rx", Rate: 1, Count: 1})
	n.agents[0].SendRemap([]int64{1 << 20})
	n.runFor(t, DefaultRetryRTO+sim.Millisecond)
	if got := n.cp.Stats.InvalidationResends - resends; got != 1 {
		t.Fatalf("%d invalidations resent one floor interval after a frame to the undelayed peer was lost, want 1", got)
	}
	n.run(t)
	if got := n.cp.Stats.InvalidationResends - resends; got != 1 {
		t.Fatalf("%d invalidations resent in all, want 1: the delayed peer's was resent too", got)
	}
	n.checkDrained(t)
}

// TestRemapRoundOneInFlight: with no round in flight an announcement leaves
// in the same event as the call, whole — more than MaxLBNs go out as several
// chunks at once, not one per round trip (a Restart's replay). While a round
// is unacknowledged further calls leave the wire untouched; when it settles
// everything queued meanwhile becomes one round of ⌈n/MaxLBNs⌉ messages, and
// the peer learns of the blocks in the order they were announced.
func TestRemapRoundOneInFlight(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)
	ag := n.agents[0]
	// A round trip of a little over 4 ms: under the floor, so nothing is
	// resent, and long enough to stand between two rounds.
	const roundTrip = 4 * sim.Millisecond
	n.inject(delayed("srv0.tx", roundTrip))

	replay := lbnRange(0, 2*MaxLBNs+44)
	ag.SendRemap(replay)
	if ag.Stats.RemapsSent != 3 || len(ag.pending) != 3 || len(ag.queue) != 0 {
		t.Fatalf("%d LBNs announced on an idle path: %d messages sent, %d chunks in flight, %d LBNs queued; want 3, 3, 0",
			len(replay), ag.Stats.RemapsSent, len(ag.pending), len(ag.queue))
	}
	const calls, perCall = 5, 60
	for i := 0; i < calls; i++ {
		ag.SendRemap(lbnRange(int64(1000*(i+1)), perCall))
	}
	if ag.Stats.RemapsSent != 3 || len(ag.queue) != calls*perCall {
		t.Fatalf("%d calls behind an unacknowledged round: %d messages sent, %d LBNs queued; want 3 and %d",
			calls, ag.Stats.RemapsSent, len(ag.queue), calls*perCall)
	}
	const second = (calls*perCall + MaxLBNs - 1) / MaxLBNs
	n.runFor(t, roundTrip+sim.Millisecond)
	if ag.Stats.RemapsAcked != 3 || ag.Stats.RemapsSent != 3+second || len(ag.queue) != 0 {
		t.Fatalf("one round trip on: %d chunks acknowledged, %d sent, %d LBNs queued; want 3, %d, 0 — the first round travelled together and its last ack started the second",
			ag.Stats.RemapsAcked, ag.Stats.RemapsSent, len(ag.queue), 3+second)
	}
	n.run(t)
	if ag.Stats.RemapsSent != 3+second || ag.Stats.RemapRetries != 0 || n.cp.Stats.RemapsStarted != 3+second {
		t.Fatalf("%d messages sent (%d resent), %d remaps started; want %d, 0, %d: %d queued LBNs are one round of %d",
			ag.Stats.RemapsSent, ag.Stats.RemapRetries, n.cp.Stats.RemapsStarted, 3+second, 3+second, calls*perCall, second)
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

// TestFaultAbandonedRoundFreesQueue: a chunk given up on ends its share of
// the round like one acknowledged. With the control plane unreachable until
// after a round's last send, RemapsAbandoned counts its chunks, the queue
// keeps filling, and the round that starts at the moment of giving up carries
// everything announced meanwhile. A round that waited for its acks would hold
// those LBNs for ever.
func TestFaultAbandonedRoundFreesQueue(t *testing.T) {
	n := buildCPNet(t)
	n.register(t)
	ag := n.agents[0]
	lastSend, giveUp := budget(DefaultRetryMax-1), budget(DefaultRetryMax)
	n.drop("cp*", fault.Schedule{Start: n.eng.Now(), End: n.eng.Now().Add(lastSend + DefaultRetryRTO)})

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
	if ag.Stats.RemapsSent != 2 || ag.Stats.RemapRetries != 2*(DefaultRetryMax-1) || len(ag.queue) != calls*perCall {
		t.Fatalf("just before the budget ends: %d chunks sent, %d resends, %d LBNs queued; want 2, %d, %d",
			ag.Stats.RemapsSent, ag.Stats.RemapRetries, len(ag.queue), 2*(DefaultRetryMax-1), calls*perCall)
	}
	n.run(t)
	const second = (calls*perCall + MaxLBNs - 1) / MaxLBNs
	st := ag.Stats
	if st.RemapsAbandoned != 2 || st.LBNsAbandoned != uint64(len(doomed)) {
		t.Errorf("RemapsAbandoned = %d, LBNsAbandoned = %d; want 2, %d", st.RemapsAbandoned, st.LBNsAbandoned, len(doomed))
	}
	if st.RemapsSent != 2+second || st.RemapsAcked != second || st.LBNsAnnounced != calls*perCall {
		t.Errorf("after the outage: %d chunks sent, %d acknowledged, %d LBNs announced; want %d, %d, %d — one round for everything queued meanwhile",
			st.RemapsSent, st.RemapsAcked, st.LBNsAnnounced, 2+second, second, calls*perCall)
	}
	if got := len(n.invals[1]); got != calls*perCall {
		t.Errorf("the peer invalidated %d LBNs, want the %d announced during the outage", got, calls*perCall)
	}
	n.checkDrained(t)
}
