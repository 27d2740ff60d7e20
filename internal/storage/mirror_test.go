package storage

import (
	"bytes"
	"errors"
	"testing"

	"ncache/internal/blockdev"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// fakeIni is an in-memory Initiator: a flat byte image with a fixed command
// latency and switchable failure injection, so breaker transitions can be
// driven precisely.
type fakeIni struct {
	eng  *sim.Engine
	pool *netbuf.Pool // the chains reads return are built on it
	geo  blockdev.Geometry
	dat  []byte
	lat  sim.Duration

	failReads  bool
	failWrites bool
	reads      int
	writes     int
}

func newFakeIni(eng *sim.Engine, pool *netbuf.Pool, blocks int64, lat sim.Duration) *fakeIni {
	return &fakeIni{
		eng:  eng,
		pool: pool,
		geo:  blockdev.Geometry{BlockSize: 512, NumBlocks: blocks},
		dat:  make([]byte, blocks*512),
		lat:  lat,
	}
}

func (f *fakeIni) Geometry() blockdev.Geometry { return f.geo }

func (f *fakeIni) Read(lba int64, blocks int, meta bool, done func(*netbuf.Chain, error)) {
	f.reads++
	f.eng.Schedule(f.lat, func() {
		if f.failReads {
			done(nil, blockdev.ErrTransient)
			return
		}
		bs := int64(f.geo.BlockSize)
		p := f.dat[lba*bs : lba*bs+int64(blocks)*bs]
		done(f.pool.GetChain(p), nil)
	})
}

func (f *fakeIni) Write(lba int64, data *netbuf.Chain, meta bool, done func(error)) {
	f.writes++
	flat := data.Flatten()
	data.Release()
	f.eng.Schedule(f.lat, func() {
		if f.failWrites {
			done(blockdev.ErrTransient)
			return
		}
		copy(f.dat[lba*int64(f.geo.BlockSize):], flat)
		done(nil)
	})
}

// mirrorRig is a mirror over fake initiators, one per latency given.
type mirrorRig struct {
	eng  *sim.Engine
	node *simnet.Node
	arms []*fakeIni
	m    *Mirror
}

func newMirrorRig(t *testing.T, policy Policy, lats ...sim.Duration) *mirrorRig {
	t.Helper()
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	var arms []*fakeIni
	var inis []Initiator
	var names []string
	for i, lat := range lats {
		a := newFakeIni(eng, node.TxPool, 256, lat)
		arms = append(arms, a)
		inis = append(inis, a)
		names = append(names, string(rune('a'+i)))
	}
	return &mirrorRig{eng: eng, node: node, arms: arms, m: NewMirror(node, names, inis, policy)}
}

// step advances far enough for any in-flight commands, probes and resync
// rounds to settle without draining the queue (an erroring arm's breaker
// keeps rescheduling probes forever, so Run would never return).
func (r *mirrorRig) step(t *testing.T, d sim.Duration) {
	t.Helper()
	r.eng.RunFor(d)
}

// await steps the clock a microsecond at a time until done reports true, so
// a request is observed within a microsecond of completing — far inside the
// breaker's 5 ms open timeout, which therefore fires only when a test steps
// past it.
func (r *mirrorRig) await(t *testing.T, done *bool) {
	t.Helper()
	for i := 0; !*done; i++ {
		if i == 10000 {
			t.Fatal("request did not complete within 10 ms")
		}
		r.step(t, sim.Microsecond)
	}
}

// issueWrite starts one mirror write of blocks filled with fill; got and done
// take its completion.
func (r *mirrorRig) issueWrite(lbn int64, fill byte, blocks int, got *error, done *bool) {
	p := bytes.Repeat([]byte{fill}, blocks*512)
	r.m.WriteAt(lbn, r.node.TxPool.GetChain(p), false, func(err error) {
		*got, *done = err, true
	})
}

// write issues one mirror write and steps until it completes.
func (r *mirrorRig) write(t *testing.T, lbn int64, fill byte, blocks int) error {
	t.Helper()
	var got error
	done := false
	r.issueWrite(lbn, fill, blocks, &got, &done)
	r.await(t, &done)
	return got
}

// read issues one mirror read and steps until it completes.
func (r *mirrorRig) read(t *testing.T, lbn int64, blocks int) ([]byte, error) {
	t.Helper()
	var flat []byte
	var got error
	done := false
	r.m.ReadAt(lbn, blocks, false, func(data *netbuf.Chain, err error) {
		if data != nil {
			flat = data.Flatten()
			data.Release()
		}
		got, done = err, true
	})
	r.await(t, &done)
	return flat, got
}

func TestMirrorWriteFansOutBothArms(t *testing.T) {
	r := newMirrorRig(t, PolicyPrimaryFirst, 10*sim.Microsecond, 10*sim.Microsecond)
	if err := r.write(t, 7, 0x5A, 3); err != nil {
		t.Fatalf("write: %v", err)
	}
	want := bytes.Repeat([]byte{0x5A}, 3*512)
	for i, a := range r.arms {
		if !bytes.Equal(a.dat[7*512:7*512+3*512], want) {
			t.Fatalf("arm %d missing replicated write", i)
		}
	}
	got, err := r.read(t, 7, 3)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: err=%v, %d bytes", err, len(got))
	}
}

func TestMirrorReadFailsOverWithoutClientError(t *testing.T) {
	r := newMirrorRig(t, PolicyPrimaryFirst, 10*sim.Microsecond, 10*sim.Microsecond)
	if err := r.write(t, 0, 0x11, 2); err != nil {
		t.Fatalf("write: %v", err)
	}
	r.arms[0].failReads = true
	got, err := r.read(t, 0, 2)
	if err != nil {
		t.Fatalf("read with one dead arm: %v", err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x11}, 2*512)) {
		t.Fatal("failover read returned wrong bytes")
	}
	st := r.m.Stats()
	if st[0].Errors != 1 {
		t.Fatalf("arm a errors = %d, want 1", st[0].Errors)
	}
	if st[0].State != ArmClosed {
		t.Fatalf("one error tripped the breaker early: %v", st[0].State)
	}
}

func TestMirrorBreakerLifecycleAndResync(t *testing.T) {
	// Each request completes in 10 µs and is awaited a microsecond at a
	// time, so the outage below lasts well under the 5 ms open timeout:
	// the half-open probe cannot fire until the test heals the arm and
	// runs the clock forward.
	r := newMirrorRig(t, PolicyPrimaryFirst, 10*sim.Microsecond, 10*sim.Microsecond)
	if err := r.write(t, 0, 0x01, 4); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	// Three consecutive failed legs trip arm b's breaker; every logical
	// write still succeeds off arm a.
	r.arms[1].failWrites = true
	for i := 0; i < 3; i++ {
		if err := r.write(t, int64(10+i), 0x20+byte(i), 1); err != nil {
			t.Fatalf("write %d during arm failure: %v", i, err)
		}
	}
	st := r.m.Stats()
	if st[1].State != ArmOpen || st[1].Ejections != 1 {
		t.Fatalf("arm b = %v ejections=%d, want open/1", st[1].State, st[1].Ejections)
	}

	// Writes while the arm is open only land on a and are logged dirty.
	for i := 0; i < 4; i++ {
		if err := r.write(t, int64(20+i), 0x30+byte(i), 1); err != nil {
			t.Fatalf("write %d during outage: %v", i, err)
		}
	}
	if st = r.m.Stats(); st[1].DirtyBlocks == 0 {
		t.Fatal("outage writes not logged in the dirty-region map")
	}

	// Heal, let the half-open probe pass and the resync drain the log.
	r.arms[1].failWrites = false
	r.step(t, sim.Second)
	st = r.m.Stats()
	if st[1].State != ArmClosed {
		t.Fatalf("arm b did not close after resync: %v", st[1].State)
	}
	if st[1].Probes == 0 || st[1].Resyncs != 1 || st[1].DirtyBlocks != 0 || st[1].ResyncBlocks == 0 {
		t.Fatalf("recovery stats = %+v", st[1])
	}
	if !bytes.Equal(r.arms[0].dat, r.arms[1].dat) {
		t.Fatal("arm images diverge after resync")
	}
}

// TestMirrorAllArmsDownRecovers: when every arm fails, the last closed arm
// stays closed (R1) and passes each error up, so once the faults stop the
// next write succeeds at once, and the ejected arm resyncs from it within
// one open timeout plus the copy — no arm waits for a source that never
// comes.
func TestMirrorAllArmsDownRecovers(t *testing.T) {
	r := newMirrorRig(t, PolicyPrimaryFirst, 10*sim.Microsecond, 10*sim.Microsecond)
	for _, a := range r.arms {
		a.failWrites, a.failReads = true, true
	}
	for i := 0; i < 4; i++ {
		if err := r.write(t, int64(i), 0xFF, 1); err == nil {
			t.Fatalf("write %d succeeded with every arm failing", i)
		}
	}
	st := r.m.Stats()
	if st[0].State != ArmOpen || st[1].State != ArmClosed {
		t.Fatalf("arms = %v/%v, want open/closed: the last closed arm is never ejected", st[0].State, st[1].State)
	}

	for _, a := range r.arms {
		a.failWrites, a.failReads = false, false
	}
	start := r.eng.Now()
	if err := r.write(t, 50, 0x42, 2); err != nil {
		t.Fatalf("write after the faults stopped: %v", err)
	}
	r.step(t, breakerOpenTimeout+sim.Millisecond)
	st = r.m.Stats()
	if st[0].State != ArmClosed || st[1].State != ArmClosed {
		t.Fatalf("%v after the faults stopped: arms = %v/%v, want both closed",
			r.eng.Now()-start, st[0].State, st[1].State)
	}
	want := bytes.Repeat([]byte{0x42}, 2*512)
	for i, a := range r.arms {
		if !bytes.Equal(a.dat[50*512:52*512], want) {
			t.Fatalf("arm %d lacks the write acked after recovery", i)
		}
	}
	if got, err := r.read(t, 50, 2); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back after recovery: err=%v", err)
	}
}

// TestMirrorReadSkipsStaleClosedArm: a write that fails on arm 0 and lands
// on arm 1 is acknowledged while arm 0 stays closed (one error is below the
// breaker's threshold); every read of the range must still return the new
// bytes, whatever the policy would have picked. Then the mirror image: once
// the arm that missed a write takes a later write to the range, it is
// current again and must serve it, even after its peer was ejected.
func TestMirrorReadSkipsStaleClosedArm(t *testing.T) {
	for _, policy := range []Policy{PolicyPrimaryFirst, PolicyRoundRobin} {
		t.Run(policy.String(), func(t *testing.T) {
			r := newMirrorRig(t, policy, 10*sim.Microsecond, 10*sim.Microsecond)
			if err := r.write(t, 4, 0x01, 2); err != nil {
				t.Fatalf("seed write: %v", err)
			}
			r.arms[0].failWrites = true
			if err := r.write(t, 4, 0x02, 2); err != nil {
				t.Fatalf("write landing on arm 1 only: %v", err)
			}
			r.arms[0].failWrites = false
			if st := r.m.Stats(); st[0].State != ArmClosed {
				t.Fatalf("arm 0 = %v, want closed", st[0].State)
			}
			want := bytes.Repeat([]byte{0x02}, 2*512)
			for i := 0; i < 4; i++ {
				if got, err := r.read(t, 4, 2); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read %d: err=%v, %d bytes; want the acked write's", i, err, len(got))
				}
			}
			// Outside the failed write's range arm 0 is current:
			// primary-first reads from it again.
			if _, err := r.read(t, 8, 1); err != nil {
				t.Fatal(err)
			}
			if policy == PolicyPrimaryFirst && r.arms[0].reads != 1 {
				t.Fatalf("arm 0 served %d reads, want only the one outside the stale range", r.arms[0].reads)
			}

			// A write fails on arm 1 and is acked off arm 0, logging
			// the range on arm 1; arm 0 is then ejected (arm 1 is
			// closed), and a new write to the range lands on arm 1
			// only. Arm 0's reads still work but return the bytes it
			// missed, so arm 1 must serve the range.
			r = newMirrorRig(t, policy, 10*sim.Microsecond, 10*sim.Microsecond)
			r.arms[1].failWrites = true
			if err := r.write(t, 4, 0x03, 2); err != nil {
				t.Fatalf("write landing on arm 0 only: %v", err)
			}
			r.arms[1].failWrites, r.arms[0].failWrites = false, true
			for i := 0; i < breakerErrorThreshold; i++ {
				if err := r.write(t, int64(30+i), 0x04, 1); err != nil {
					t.Fatalf("write %d landing on arm 1 only: %v", i, err)
				}
			}
			if st := r.m.Stats(); st[0].State != ArmOpen {
				t.Fatalf("arm 0 = %v, want open", st[0].State)
			}
			if err := r.write(t, 4, 0x05, 2); err != nil {
				t.Fatalf("write to the range with arm 0 out: %v", err)
			}
			if st := r.m.Stats(); st[1].DirtyBlocks != 0 {
				t.Fatalf("arm 1 keeps %d dirty blocks after the range landed on it", st[1].DirtyBlocks)
			}
			want = bytes.Repeat([]byte{0x05}, 2*512)
			for i := 0; i < 4; i++ {
				if got, err := r.read(t, 4, 2); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read %d after arm 0's ejection: err=%v; want the last write's bytes", i, err)
				}
			}
		})
	}
}

// TestMirrorFailedLegLoggedAfterPeerEjected: R2 is decided by the write, not
// by the arms' states when its failed leg completes. A write lands on fast
// arm 1 and fails on slow arm 0; before arm 0 answers, concurrent writes
// eject arm 1. The write is acked, so arm 0 — now the only closed arm — must
// log the range, and reads of it must return the acked bytes.
func TestMirrorFailedLegLoggedAfterPeerEjected(t *testing.T) {
	r := newMirrorRig(t, PolicyPrimaryFirst, sim.Millisecond, 10*sim.Microsecond)
	r.arms[0].failWrites = true
	var acked error
	ackedDone := false
	r.issueWrite(4, 0x0A, 2, &acked, &ackedDone)
	r.step(t, 20*sim.Microsecond)
	r.arms[1].failWrites = true
	var errs [breakerErrorThreshold]error
	var dones [breakerErrorThreshold]bool
	for i := range errs {
		r.issueWrite(int64(20+i), 0x0B, 1, &errs[i], &dones[i])
		r.step(t, 20*sim.Microsecond)
	}
	if st := r.m.Stats(); st[0].State != ArmClosed || st[1].State != ArmOpen {
		t.Fatalf("arms = %v/%v before arm 0 answers, want closed/open", st[0].State, st[1].State)
	}
	r.await(t, &ackedDone)
	if acked != nil {
		t.Fatalf("write that landed on arm 1: %v", acked)
	}
	for i := range dones {
		r.await(t, &dones[i])
	}
	if st := r.m.Stats(); st[0].DirtyBlocks < 2 {
		t.Fatalf("arm 0 logged %d dirty blocks, want the acked write's range", st[0].DirtyBlocks)
	}
	want := bytes.Repeat([]byte{0x0A}, 2*512)
	if got, err := r.read(t, 4, 2); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read with arm 1 out: err=%v; want the acked write's bytes", err)
	}

	// Once arm 1 is back, it serves the range from the closed tier.
	r.arms[0].failWrites, r.arms[1].failWrites = false, false
	r.step(t, breakerOpenTimeout+sim.Millisecond)
	if st := r.m.Stats(); st[1].State != ArmClosed {
		t.Fatalf("arm 1 = %v after the faults stopped, want closed", st[1].State)
	}
	if got, err := r.read(t, 4, 2); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after recovery: err=%v; want the acked write's bytes", err)
	}
}

// TestMirrorResyncBacksOffFailingSource: a resync whose source fails every
// copy retries once per open timeout, not at I/O rate — R1 keeps a failing
// source closed, so nothing else stops the retries — and finishes once the
// source heals.
func TestMirrorResyncBacksOffFailingSource(t *testing.T) {
	r := newMirrorRig(t, PolicyPrimaryFirst, 10*sim.Microsecond, 10*sim.Microsecond)
	r.arms[1].failWrites = true
	for i := 0; i < breakerErrorThreshold; i++ {
		if err := r.write(t, int64(i), 0x55, 1); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	r.arms[1].failWrites, r.arms[0].failReads = false, true
	const window = 20 * breakerOpenTimeout
	r.step(t, window)
	st := r.m.Stats()
	if st[0].State != ArmClosed || st[1].State != ArmResync {
		t.Fatalf("arms = %v/%v with the source failing, want closed/resync", st[0].State, st[1].State)
	}
	if limit := uint64(window/breakerOpenTimeout) + 1; st[0].Errors > limit {
		t.Fatalf("source failed %d copies in %v, want at most %d (one per open timeout)", st[0].Errors, window, limit)
	}
	r.arms[0].failReads = false
	r.step(t, 2*breakerOpenTimeout)
	if st = r.m.Stats(); st[1].State != ArmClosed || st[1].DirtyBlocks != 0 {
		t.Fatalf("arm 1 = %v with %d dirty blocks after the source healed, want closed and clean", st[1].State, st[1].DirtyBlocks)
	}
	if !bytes.Equal(r.arms[0].dat, r.arms[1].dat) {
		t.Fatal("arm images diverge after resync")
	}
}

// TestMirrorOneArmPassesErrorsUp: a one-arm mirror under persistent disk
// errors is a plain arm — every command's error reaches the caller, and the
// arm is never ejected, probed or logged, so it serves again the moment the
// errors stop.
func TestMirrorOneArmPassesErrorsUp(t *testing.T) {
	r := newMirrorRig(t, PolicyPrimaryFirst, 10*sim.Microsecond)
	r.arms[0].failWrites, r.arms[0].failReads = true, true
	for i := 0; i < 2*breakerErrorThreshold; i++ {
		if err := r.write(t, int64(i), 0x33, 1); !errors.Is(err, blockdev.ErrTransient) {
			t.Fatalf("write %d = %v, want the arm's error", i, err)
		}
		if _, err := r.read(t, int64(i), 1); !errors.Is(err, blockdev.ErrTransient) {
			t.Fatalf("read %d = %v, want the arm's error", i, err)
		}
	}
	r.step(t, 4*breakerOpenTimeout)
	st := r.m.Stats()[0]
	if st.State != ArmClosed || st.Ejections != 0 || st.Probes != 0 || st.DirtyBlocks != 0 {
		t.Fatalf("one arm under errors: %+v, want closed with no ejection, probe or dirty log", st)
	}
	if st.Errors != 4*breakerErrorThreshold || r.arms[0].reads != 2*breakerErrorThreshold {
		t.Fatalf("errors %d, arm reads %d: every command goes to the arm once and fails once", st.Errors, r.arms[0].reads)
	}
	r.arms[0].failWrites, r.arms[0].failReads = false, false
	if err := r.write(t, 0, 0x44, 1); err != nil {
		t.Fatalf("write after the errors stopped: %v", err)
	}
}

func TestMirrorRoundRobinPolicy(t *testing.T) {
	r := newMirrorRig(t, PolicyRoundRobin, 10*sim.Microsecond, 10*sim.Microsecond)
	for i := 0; i < 4; i++ {
		if _, err := r.read(t, 0, 1); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if r.arms[0].reads != 2 || r.arms[1].reads != 2 {
		t.Fatalf("round-robin split = %d/%d, want 2/2", r.arms[0].reads, r.arms[1].reads)
	}
}

func TestMirrorLeastLatencyPolicyPrefersFastArm(t *testing.T) {
	r := newMirrorRig(t, PolicyLeastLatency, sim.Millisecond, 10*sim.Microsecond)
	for i := 0; i < 6; i++ {
		if _, err := r.read(t, 0, 1); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if r.arms[1].reads <= r.arms[0].reads {
		t.Fatalf("least-latency split = %d/%d, want fast arm to dominate",
			r.arms[0].reads, r.arms[1].reads)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
	}{
		{"", PolicyPrimaryFirst},
		{"primary-first", PolicyPrimaryFirst},
		{"round-robin", PolicyRoundRobin},
		{"least-latency", PolicyLeastLatency},
	} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParsePolicy("fastest"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
