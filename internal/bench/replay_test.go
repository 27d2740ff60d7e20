package bench

import (
	"reflect"
	"testing"
)

// Determinism is checked by replay, over the registry: rebuilding and
// rerunning an experiment at identical options must reproduce every simulated
// quantity bit-for-bit — throughput, CPU, link utilization, latency
// summaries with their full histograms, fault-recovery and TCP loss-recovery
// counters, event counts. Any hidden host-side state (map iteration, pool
// reuse order) that leaked into simulated results would diverge here.

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
// sweep runs every experiment twice over, and bit-exactness is exercised as
// thoroughly by a 20 ms window as by an 80 ms one.
func sweepOpts() Options {
	opt := quickOpts()
	opt.Warmup, opt.Window, opt.Scale = opt.Warmup/4, opt.Window/4, opt.Scale*4
	return opt
}

// replay runs one row at sweep scale with tracing on, so latency summaries
// are part of what is compared. NCACHE_FAULT_SEED extends every row to the
// CI seed matrix.
func (r replayRow) replay(t *testing.T) Result {
	t.Helper()
	opt := sweepOpts()
	opt.Latency, opt.FaultSpec, opt.FaultSeed = true, r.fault, testFaultSeed(t)
	res, err := r.exp.Run(opt)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return res
}

// TestSeedReplay: every row replays bit-for-bit. The rows run in parallel,
// so under -race they also show that clusters share no state.
func TestSeedReplay(t *testing.T) {
	for _, r := range replayRows() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			first, second := r.replay(t), r.replay(t)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s: rerun diverged from first run at equal options\nfirst:  %+v\nsecond: %+v",
					r.name, first, second)
			}
		})
	}
}
