package bench

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// Determinism is checked by replay, over the registry: rebuilding and
// rerunning an experiment at identical options must reproduce every simulated
// quantity bit-for-bit — throughput, CPU, link utilization, latency
// summaries with their full histograms, fault-recovery and TCP loss-recovery
// counters, epoch and event counts. Any hidden host-side state (map
// iteration, pool reuse order, RX-ring adoption, goroutine interleaving)
// that leaked into simulated results would diverge here.

// replayRow is one row of the replay sweeps: a registered experiment, or a
// faulted variant of one.
type replayRow struct {
	name  string
	exp   Experiment
	fault string
}

// replayRows is every registered experiment plus the faulted variants of the
// acceptance criteria: the UDP/TCP comparison (RTO, fast-retransmit and
// datagram-RPC retransmission counts are part of its points) and the
// scale-out tier, both under client-link frame loss.
func replayRows() []replayRow {
	var rows []replayRow
	for _, e := range Experiments {
		rows = append(rows, replayRow{name: e.Name, exp: e})
	}
	for _, name := range []string{"transport", "scaleout"} {
		rows = append(rows, replayRow{name: name + "+frame-loss", exp: Select(name)[0], fault: "frame-loss"})
	}
	return rows
}

// sweepOpts is quickOpts at a quarter of the window and working sets: the
// sweeps run every experiment five times over, and bit-exactness is
// exercised as thoroughly by a 20 ms window as by an 80 ms one.
func sweepOpts() Options {
	opt := quickOpts()
	opt.Warmup, opt.Window, opt.Scale = opt.Warmup/4, opt.Window/4, opt.Scale*4
	return opt
}

// replay runs one row at sweep scale with tracing on, so latency summaries
// are part of what is compared. NCACHE_FAULT_SEED extends every row to the
// CI seed matrix. Barrier time and wake counts are host-dependent; the rest
// of the engine statistics are pure functions of the schedule.
func (r replayRow) replay(t *testing.T, workers int) Result {
	t.Helper()
	opt := sweepOpts()
	opt.Latency, opt.FaultSpec, opt.FaultSeed, opt.Workers = true, r.fault, testFaultSeed(t), workers
	res, err := r.exp.Run(opt)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", r.name, workers, err)
	}
	res.Engine.BarrierNs, res.Engine.Wakes = 0, 0
	return res
}

// diffResults fails the test if two runs are not exactly equal.
func diffResults(t *testing.T, what string, first, second Result) {
	t.Helper()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("%s: rerun diverged from first run at equal options\nfirst:  %+v\nsecond: %+v",
			what, first, second)
	}
}

// TestSeedReplay: every row replays bit-for-bit on the sequential engine.
func TestSeedReplay(t *testing.T) {
	for _, r := range replayRows() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			diffResults(t, r.name, r.replay(t, 0), r.replay(t, 0))
		})
	}
}

// TestParallelReplay: every row is identical on the sharded engine for any
// worker count — the sequential oracle of the sharded semantics (Workers=1)
// against 2, 4 and GOMAXPROCS workers. Workers=0 (the legacy single engine)
// is a different schedule by design and is covered by TestSeedReplay. With
// one CPU every worker count runs on one thread and the sweep says so on
// stderr (go test shows a passing package's stderr under -v, or when run
// from the package directory).
func TestParallelReplay(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(os.Stderr, "\n*** TestParallelReplay: GOMAXPROCS=1 — every worker count runs on one thread; this run PROVES NOTHING about the parallel engine ***")
	}
	counts := []int{2, 4}
	if n := runtime.GOMAXPROCS(0); n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, r := range replayRows() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			want := r.replay(t, 1)
			for _, w := range counts {
				diffResults(t, fmt.Sprintf("%s workers=%d vs workers=1", r.name, w), want, r.replay(t, w))
			}
		})
	}
}
