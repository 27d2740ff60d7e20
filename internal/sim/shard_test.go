package sim

import (
	"fmt"
	"reflect"
	"testing"
)

const testLookahead = 5 * Microsecond

// buildPingPong wires a small sharded cluster: nShards model shards that
// bounce timestamped messages between each other via PostTo, each bounce
// recording (shard, time, payload) into a per-run log. The log is the
// observational trace the determinism tests compare.
func buildPingPong(t *testing.T, workers, nShards, rounds int) []string {
	t.Helper()
	ctl := NewSharded(Config{Workers: workers, Lookahead: testLookahead})
	defer ctl.Close()
	shards := make([]*Engine, nShards)
	for i := range shards {
		shards[i] = ctl.NewShard(fmt.Sprintf("node%d", i))
	}
	// Per-shard logs: a shard only appends to its own slice, so recording
	// is race-free under any worker count.
	logs := make([][]string, nShards+1)
	record := func(s *Engine, what string) {
		logs[s.id] = append(logs[s.id], fmt.Sprintf("%s@%s:%s", s.name, s.Now(), what))
	}
	// Each shard i sends round-robin to (i+1)%n, plus local busywork that
	// interleaves with the arrivals.
	var hop func(from, to, left int)
	hop = func(from, to, left int) {
		src := shards[from]
		postFn(src, shards[to], testLookahead+Duration(from+1)*Microsecond, func() {
			record(shards[to], fmt.Sprintf("recv<-%d(left=%d)", from, left))
			if left > 0 {
				hop(to, (to+1)%nShards, left-1)
			}
		})
	}
	for i := range shards {
		i := i
		shards[i].Schedule(Duration(i)*Microsecond, func() {
			record(shards[i], "start")
			hop(i, (i+1)%nShards, rounds)
			var tick func()
			n := 0
			tick = func() {
				record(shards[i], fmt.Sprintf("tick%d", n))
				n++
				if n < rounds {
					shards[i].Schedule(3*Microsecond, tick)
				}
			}
			shards[i].Schedule(Microsecond, tick)
		})
	}
	if err := ctl.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The per-shard sublogs are deterministic; their global interleaving
	// is not observable, so canonicalize by sorting the concatenation —
	// each entry embeds shard and time, making the sorted view total.
	var sorted []string
	for _, l := range logs {
		sorted = append(sorted, l...)
	}
	sortStrings(sorted)
	return sorted
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestShardedDeterministicAcrossWorkers is the core tentpole property: the
// observable trace of a sharded run is identical for any worker count.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	want := buildPingPong(t, 1, 5, 40)
	for _, w := range []int{2, 3, 4, 8} {
		got := buildPingPong(t, w, 5, 40)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d trace diverges from workers=1 (%d vs %d entries)", w, len(got), len(want))
		}
	}
}

// TestPostToVisibleNextEpoch checks the staging protocol: a cross-shard
// send fires at exactly src.now + delay on the destination's clock.
func TestPostToVisibleNextEpoch(t *testing.T) {
	ctl := NewSharded(Config{Workers: 2, Lookahead: testLookahead})
	defer ctl.Close()
	a := ctl.NewShard("a")
	b := ctl.NewShard("b")
	var at Time
	a.Schedule(7*Microsecond, func() {
		postFn(a, b, testLookahead, func() { at = b.Now() })
	})
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(12 * Microsecond); at != want {
		t.Fatalf("cross-shard event fired at %s, want %s", at, want)
	}
}

// TestPostToBelowLookaheadPanics enforces the conservative contract.
func TestPostToBelowLookaheadPanics(t *testing.T) {
	ctl := NewSharded(Config{Workers: 1, Lookahead: testLookahead})
	defer ctl.Close()
	a := ctl.NewShard("a")
	b := ctl.NewShard("b")
	a.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("PostTo below lookahead did not panic")
			}
		}()
		postFn(a, b, testLookahead-1, func() {})
	})
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPostToCarriesContext verifies the request context crosses shards
// with the staged event, like ctx inheritance on a local schedule.
func TestPostToCarriesContext(t *testing.T) {
	ctl := NewSharded(Config{Workers: 2, Lookahead: testLookahead})
	defer ctl.Close()
	a := ctl.NewShard("a")
	b := ctl.NewShard("b")
	var got any
	a.Schedule(0, func() {
		a.SetContext("req-42")
		postFn(a, b, testLookahead, func() {
			got = b.Context()
			// And it keeps propagating locally on the new shard.
			b.Schedule(Microsecond, func() {
				if b.Context() != "req-42" {
					t.Error("context lost on post-arrival schedule")
				}
			})
		})
	})
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "req-42" {
		t.Fatalf("staged context = %v, want req-42", got)
	}
}

// TestRunUntilUniformClocks: after RunUntil every shard's clock must sit
// at exactly the bound, so experiment boundaries (warmup/window ends) read
// consistent utilization denominators.
func TestRunUntilUniformClocks(t *testing.T) {
	ctl := NewSharded(Config{Workers: 2, Lookahead: testLookahead})
	defer ctl.Close()
	shards := []*Engine{ctl.NewShard("a"), ctl.NewShard("b"), ctl.NewShard("c")}
	shards[0].Schedule(3*Microsecond, func() {})
	shards[1].Schedule(900*Microsecond, func() {}) // beyond the bound
	bound := Time(100 * Microsecond)
	if err := ctl.RunUntil(bound); err != nil {
		t.Fatal(err)
	}
	for _, s := range append(shards, ctl) {
		if s.Now() != bound {
			t.Fatalf("shard %s clock %s, want %s", s.name, s.Now(), bound)
		}
	}
	// The event beyond the bound is still pending and fires on resume.
	if ctl.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", ctl.Pending())
	}
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunExclusive: exclusive callbacks run with the whole cluster
// quiescent and may schedule directly onto model shards — the harness
// privilege the old always-exclusive control shard provided.
func TestRunExclusive(t *testing.T) {
	ctl := NewSharded(Config{Workers: 4, Lookahead: testLookahead})
	defer ctl.Close()
	model := ctl.NewShard("m")
	ran := 0
	var tick func()
	n := 0
	tick = func() {
		// Exclusive callback scheduling directly onto the model shard.
		model.Schedule(Microsecond, func() { ran++ })
		n++
		if n < 10 {
			ctl.RunExclusive(10*Microsecond, tick)
		}
	}
	ctl.RunExclusive(0, tick)
	// Keep the model shard busy so the callbacks land between busy epochs.
	var busy func()
	b := 0
	busy = func() {
		b++
		if b < 200 {
			model.Schedule(Microsecond/2, busy)
		}
	}
	model.Schedule(0, busy)
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 10 {
		t.Fatalf("exclusive-injected events ran %d times, want 10", ran)
	}
	if got := ctl.RunStats().ExclusiveRuns; got != 10 {
		t.Fatalf("ExclusiveRuns = %d, want 10", got)
	}
}

// TestRunExclusiveOrdering: an exclusive callback due at time T runs
// before any shard event at T (the old phase-A-first order), and the
// control clock lands on the callback's due time.
func TestRunExclusiveOrdering(t *testing.T) {
	ctl := NewSharded(Config{Workers: 2, Lookahead: testLookahead})
	defer ctl.Close()
	a := ctl.NewShard("a")
	var order []string
	a.Schedule(10*Microsecond, func() { order = append(order, "event") })
	ctl.RunExclusive(10*Microsecond, func() {
		order = append(order, "exclusive")
		if ctl.Now() != Time(10*Microsecond) {
			t.Errorf("control clock %s inside exclusive, want 10µs", ctl.Now())
		}
	})
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"exclusive", "event"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestRunExclusiveFromModelPanics: only the control shard may request
// cluster-wide exclusivity.
func TestRunExclusiveFromModelPanics(t *testing.T) {
	ctl := NewSharded(Config{Workers: 1, Lookahead: testLookahead})
	defer ctl.Close()
	m := ctl.NewShard("m")
	m.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("RunExclusive from a model shard did not panic")
			}
		}()
		m.RunExclusive(0, func() {})
	})
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStopAtBarrier: Stop from a model shard ends the run at the
// next barrier, deterministically.
func TestShardedStopAtBarrier(t *testing.T) {
	ctl := NewSharded(Config{Workers: 2, Lookahead: testLookahead})
	defer ctl.Close()
	a := ctl.NewShard("a")
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 50 {
			a.Stop()
		}
		a.Schedule(Microsecond, tick)
	}
	a.Schedule(0, tick)
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
	if count < 50 {
		t.Fatalf("stopped after %d events, want >= 50", count)
	}
	if ctl.Pending() == 0 {
		t.Fatal("Stop drained the queue; events should remain pending")
	}
}

// TestShardedEventLimit: the aggregate limit trips at a barrier.
func TestShardedEventLimit(t *testing.T) {
	ctl := NewSharded(Config{Workers: 2, Lookahead: testLookahead})
	defer ctl.Close()
	a := ctl.NewShard("a")
	ctl.SetEventLimit(100)
	var tick func()
	tick = func() { a.Schedule(Microsecond, tick) }
	a.Schedule(0, tick)
	if err := ctl.Run(); err == nil {
		t.Fatal("runaway loop did not trip the event limit")
	}
}

// TestShardedProcessedAggregates checks the cross-shard counters.
func TestShardedProcessedAggregates(t *testing.T) {
	ctl := NewSharded(Config{Workers: 2, Lookahead: testLookahead})
	defer ctl.Close()
	a := ctl.NewShard("a")
	b := ctl.NewShard("b")
	for i := 0; i < 5; i++ {
		a.Schedule(Duration(i)*Microsecond, func() {})
		b.Schedule(Duration(i)*Microsecond, func() {})
	}
	ctl.Schedule(0, func() {})
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Processed(); got != 11 {
		t.Fatalf("Processed() = %d, want 11", got)
	}
}

// TestOnBarrierRunsEachEpoch: barrier hooks observe every epoch plus the
// final flush.
func TestOnBarrierRunsEachEpoch(t *testing.T) {
	ctl := NewSharded(Config{Workers: 1, Lookahead: testLookahead})
	defer ctl.Close()
	a := ctl.NewShard("a")
	barriers := 0
	ctl.OnBarrier(func() { barriers++ })
	for i := 0; i < 4; i++ {
		// Spread events so they cannot share one epoch window.
		a.Schedule(Duration(i)*100*Microsecond, func() {})
	}
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
	if barriers < 4 {
		t.Fatalf("barrier hook ran %d times, want >= 4", barriers)
	}
}

// buildPingPongLA is buildPingPong with a wiring hook that may install
// per-pair lookaheads before the run; it also returns the epoch count.
func buildPingPongLA(t *testing.T, workers, nShards, rounds int, wire func(ctl *Engine, shards []*Engine)) ([]string, uint64) {
	t.Helper()
	ctl := NewSharded(Config{Workers: workers, Lookahead: testLookahead})
	defer ctl.Close()
	shards := make([]*Engine, nShards)
	for i := range shards {
		shards[i] = ctl.NewShard(fmt.Sprintf("node%d", i))
	}
	if wire != nil {
		wire(ctl, shards)
	}
	logs := make([][]string, nShards+1)
	record := func(s *Engine, what string) {
		logs[s.id] = append(logs[s.id], fmt.Sprintf("%s@%s:%s", s.name, s.Now(), what))
	}
	var hop func(from, to, left int)
	hop = func(from, to, left int) {
		src := shards[from]
		postFn(src, shards[to], testLookahead+Duration(from+1)*Microsecond, func() {
			record(shards[to], fmt.Sprintf("recv<-%d(left=%d)", from, left))
			if left > 0 {
				hop(to, (to+1)%nShards, left-1)
			}
		})
	}
	for i := range shards {
		i := i
		shards[i].Schedule(Duration(i)*Microsecond, func() {
			record(shards[i], "start")
			hop(i, (i+1)%nShards, rounds)
			var tick func()
			n := 0
			tick = func() {
				record(shards[i], fmt.Sprintf("tick%d", n))
				n++
				if n < rounds {
					shards[i].Schedule(3*Microsecond, tick)
				}
			}
			shards[i].Schedule(Microsecond, tick)
		})
	}
	if err := ctl.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	var sorted []string
	for _, l := range logs {
		sorted = append(sorted, l...)
	}
	sortStrings(sorted)
	return sorted, ctl.Epochs()
}

// TestUniformMatrixMatchesScalar is the bit-compat property: explicitly
// setting every pair — self-pairs included — to the configured scalar
// lookahead reproduces the default (global-scalar) schedule and epoch
// structure exactly. The scalar configuration IS the uniform matrix.
func TestUniformMatrixMatchesScalar(t *testing.T) {
	want, wantEpochs := buildPingPongLA(t, 1, 5, 40, nil)
	got, gotEpochs := buildPingPongLA(t, 1, 5, 40, func(ctl *Engine, shards []*Engine) {
		all := append([]*Engine{ctl}, shards...)
		for _, src := range all {
			for _, dst := range all {
				ctl.SetLookahead(src, dst, testLookahead)
			}
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("uniform matrix diverges from scalar schedule (%d vs %d entries)", len(got), len(want))
	}
	if gotEpochs != wantEpochs {
		t.Fatalf("uniform matrix epochs = %d, scalar = %d", gotEpochs, wantEpochs)
	}
}

// wirePairMatrix installs a deliberately non-uniform matrix (so the O(S²)
// slow path is exercised): pair bounds vary per (src, dst) but stay at or
// below every delay the ping-pong posts, and self-pairs are NoPost.
func wirePairMatrix(ctl *Engine, shards []*Engine) {
	for i, src := range shards {
		ctl.SetLookahead(src, src, NoPost)
		for j, dst := range shards {
			if i == j {
				continue
			}
			ctl.SetLookahead(src, dst, testLookahead+Duration((i+j)%2)*Microsecond)
		}
	}
}

// TestShardedDeterministicAcrossWorkersMatrix: the tentpole invariant with
// a non-uniform lookahead matrix — for a FIXED matrix, the observable
// trace is identical for any worker count.
func TestShardedDeterministicAcrossWorkersMatrix(t *testing.T) {
	want, wantEpochs := buildPingPongLA(t, 1, 5, 40, wirePairMatrix)
	for _, w := range []int{2, 4} {
		got, gotEpochs := buildPingPongLA(t, w, 5, 40, wirePairMatrix)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d trace diverges under pair matrix (%d vs %d entries)", w, len(got), len(want))
		}
		if gotEpochs != wantEpochs {
			t.Fatalf("workers=%d epochs = %d, want %d (epoch structure must be worker-independent)", w, gotEpochs, wantEpochs)
		}
	}
}

// TestNoPostDiagonalWidensEpochs: with self-pairs at NoPost and a wide
// cross-pair bound, two shards grinding long local event chains that only
// rarely talk must synchronize orders of magnitude less often than under
// the uniform 5µs floor.
func TestNoPostDiagonalWidensEpochs(t *testing.T) {
	const ticks = 2000
	run := func(wire func(ctl *Engine, shards []*Engine)) uint64 {
		ctl := NewSharded(Config{Workers: 1, Lookahead: testLookahead})
		defer ctl.Close()
		a := ctl.NewShard("a")
		b := ctl.NewShard("b")
		if wire != nil {
			wire(ctl, []*Engine{a, b})
		}
		for _, s := range []*Engine{a, b} {
			s := s
			n := 0
			var tick func()
			tick = func() {
				n++
				if n < ticks {
					s.Schedule(Microsecond, tick)
				}
			}
			s.Schedule(0, tick)
		}
		// One cross-shard exchange so the pair is genuinely connected.
		a.Schedule(0, func() { postFn(a, b, Millisecond, func() {}) })
		if err := ctl.Run(); err != nil {
			t.Fatal(err)
		}
		return ctl.Epochs()
	}
	scalar := run(nil)
	wide := run(func(ctl *Engine, shards []*Engine) {
		a, b := shards[0], shards[1]
		ctl.SetLookahead(a, a, NoPost)
		ctl.SetLookahead(b, b, NoPost)
		// The idle control shard's whole row must be NoPost too: the
		// horizon fixed point propagates transitively, so a control row
		// left at the scalar default would cap every horizon at one
		// round trip through it (default + default), not the wide
		// cross-pair bound.
		ctl.SetLookahead(ctl, ctl, NoPost)
		ctl.SetLookahead(ctl, a, NoPost)
		ctl.SetLookahead(ctl, b, NoPost)
		ctl.SetLookahead(a, b, Millisecond)
		ctl.SetLookahead(b, a, Millisecond)
	})
	if wide*10 > scalar {
		t.Fatalf("NoPost diagonal epochs = %d, scalar = %d; want >= 10x reduction", wide, scalar)
	}
}

// TestWorkersClampedAtFreeze: the effective worker count never exceeds the
// shard count or GOMAXPROCS, whatever the config asks for.
func TestWorkersClampedAtFreeze(t *testing.T) {
	ctl := NewSharded(Config{Workers: 64, Lookahead: testLookahead})
	defer ctl.Close()
	a := ctl.NewShard("a")
	a.Schedule(0, func() {})
	if err := ctl.Run(); err != nil {
		t.Fatal(err)
	}
	if got, max := ctl.Workers(), 2; got > max {
		t.Fatalf("effective workers = %d, want <= shard count %d", got, max)
	}
}

// TestRunStatsDeterministic: the schedule-derived RunStats fields are
// identical across worker counts.
func TestRunStatsDeterministic(t *testing.T) {
	stats := func(workers int) RunStats {
		ctl := NewSharded(Config{Workers: workers, Lookahead: testLookahead})
		defer ctl.Close()
		shards := []*Engine{ctl.NewShard("a"), ctl.NewShard("b"), ctl.NewShard("c")}
		for i, s := range shards {
			s := s
			next := shards[(i+1)%len(shards)]
			n := 0
			var tick func()
			tick = func() {
				n++
				if n%3 == 0 {
					postFn(s, next, testLookahead, func() {})
				}
				if n < 50 {
					s.Schedule(Microsecond, tick)
				}
			}
			s.Schedule(Duration(i)*Microsecond, tick)
		}
		if err := ctl.Run(); err != nil {
			t.Fatal(err)
		}
		st := ctl.RunStats()
		st.Wakes, st.BarrierNs = 0, 0 // host-dependent fields
		return st
	}
	want := stats(1)
	if want.Epochs == 0 || want.Events == 0 || want.StagedAdmits == 0 {
		t.Fatalf("degenerate stats: %+v", want)
	}
	for _, w := range []int{2, 4} {
		if got := stats(w); got != want {
			t.Fatalf("workers=%d stats %+v, want %+v", w, got, want)
		}
	}
}

// TestLegacyEngineUnaffected guards the non-sharded fast path: a plain
// NewEngine must report itself unsharded and keep PostTo-to-self local.
func TestLegacyEngineUnaffected(t *testing.T) {
	e := NewEngine()
	if e.Sharded() || e.ShardCount() != 1 || e.Workers() != 1 || e.Lookahead() != 0 {
		t.Fatal("legacy engine misreports shard metadata")
	}
	fired := false
	e.Schedule(0, func() { postFn(e, e, Microsecond, func() { fired = true }) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("PostTo on a legacy engine did not degrade to Schedule")
	}
}

// postFn posts a plain func(): the func value rides in the event as the
// handler's first argument.
func postFn(e, dst *Engine, d Duration, fn func()) {
	e.PostTo(dst, d, func(fn, _ any, _ int64) { fn.(func())() }, fn, nil, 0)
}
