package sim

import "testing"

const (
	testFloor = 10 * Millisecond
	testCeil  = 160 * Millisecond
)

// TestRTTZeroValueIsTheFloor: a path nothing is known about resends at the
// caller's floor, and no estimate or backoff takes the interval outside the
// caller's bounds.
func TestRTTZeroValueIsTheFloor(t *testing.T) {
	var e RTT
	if got := e.Interval(testFloor, testCeil); got != testFloor {
		t.Errorf("zero value: interval %v, want the floor %v", got, testFloor)
	}
	e.Sample(200 * Microsecond)
	if got := e.Interval(testFloor, testCeil); got != testFloor {
		t.Errorf("a 200µs path: interval %v, want the floor %v", got, testFloor)
	}
	e.Sample(10 * Second)
	if got := e.Interval(testFloor, testCeil); got != testCeil {
		t.Errorf("a 10 s sample: interval %v, want the ceiling %v", got, testCeil)
	}
	e = RTT{}
	e.BackOff(10 * Second)
	if got := e.Interval(testFloor, testCeil); got != testCeil {
		t.Errorf("a 10 s backoff: interval %v, want the ceiling %v", got, testCeil)
	}
}

// TestRTTBackoffTeachesAColdPath: when the round trip exceeds the interval
// every exchange is resent and none may be sampled (Karn). The backed-off
// wait is what the next exchange starts from; the first clean sample
// replaces it, and a smaller backoff never shortens a longer one.
func TestRTTBackoffTeachesAColdPath(t *testing.T) {
	var e RTT
	e.BackOff(2 * testFloor)
	e.BackOff(4 * testFloor)
	e.BackOff(2 * testFloor)
	if got := e.Interval(testFloor, testCeil); got != 4*testFloor {
		t.Fatalf("after backing off to %v: interval %v", 4*testFloor, got)
	}
	if e.SRTT != 0 || e.RTTVar != 0 {
		t.Fatalf("a backoff moved the estimate: %+v", e)
	}
	const rtt = 3 * testFloor
	e.Sample(rtt)
	if e.Backed != 0 {
		t.Errorf("Backed = %v after a sample, want 0", e.Backed)
	}
	if got := e.Interval(testFloor, testCeil); got <= rtt {
		t.Errorf("interval %v after one %v sample, want above it", got, rtt)
	}
}

// TestRTTConvergesAndUnlearns: under a round trip of three floors the
// interval settles just above it — never at or below it, even when every
// sample is identical and RTTVar has decayed to nothing, or a timer would
// fire in the instant of the reply it waits for — and when the load lifts a
// handful of samples bring it back to the floor.
func TestRTTConvergesAndUnlearns(t *testing.T) {
	const loaded, idle = 3 * testFloor, 200 * Microsecond
	var e RTT
	for i := 0; i < 64; i++ {
		e.Sample(loaded)
		if got := e.Interval(testFloor, testCeil); got <= loaded {
			t.Fatalf("sample %d: interval %v is not above the %v round trip", i, got, loaded)
		}
	}
	if got := e.Interval(testFloor, testCeil); got > loaded+loaded/4 {
		t.Errorf("interval %v after 64 identical %v samples, want within a quarter above", got, loaded)
	}
	if e.RTTVar != 0 {
		t.Errorf("RTTVar = %v after 64 identical samples, want 0", e.RTTVar)
	}
	n := 0
	for ; e.Interval(testFloor, testCeil) > testFloor && n < 32; n++ {
		e.Sample(idle)
	}
	if n > 8 {
		t.Errorf("the interval took %d samples to return to the floor, want at most 8", n)
	}
}
