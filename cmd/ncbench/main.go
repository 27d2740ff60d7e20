// Command ncbench regenerates the tables and figures of "Network-Centric
// Buffer Cache Organization" (ICDCS 2005) on the simulated testbed.
//
// Usage:
//
//	ncbench -exp all                 # every table and figure
//	ncbench -exp fig4                # one experiment
//	ncbench -exp fig5b -window 1s -concurrency 16
//
// Experiments: table1, table2, fig4, fig5a, fig5b, fig6a, fig6b, fig7,
// transport, futurework, overhead, ablations, fig-fault, fig-fault-sweep,
// fig-avail, scaleout, writeback, all.
//
// fig-avail (explicit-only) measures availability on a two-arm mirrored
// volume: a mixed read/write load runs through an injected arm outage — the
// circuit breaker ejects the dead arm, the survivor keeps serving, and a
// dirty-region resync readmits the arm — followed by a read-policy
// comparison under a slow primary arm, writing results/fig-avail.txt:
//
//	ncbench -exp fig-avail
//	ncbench -exp fig-avail -window 200ms -scale 8   # quick smoke
//
// writeback (explicit-only) compares the asynchronous write-back pipeline
// (WAL group commit + batched flusher) against the synchronous dirty-data
// path at equal durability on a write-heavy SFS mix, writing
// results/fig-writeback.txt:
//
//	ncbench -exp writeback
//	ncbench -exp writeback -window 200ms -scale 8   # quick smoke
//
// scaleout (explicit-only, like fig-fault-sweep) grows the pass-through
// tier to 1/2/4/8 front-end servers over sharded iSCSI targets with
// control-plane routing and remap coherence, writing results/fig-scaleout.txt:
//
//	ncbench -exp scaleout
//	ncbench -exp scaleout -window 200ms -scale 8   # quick smoke topology
//
// -workers N runs every cluster on the parallel discrete-event engine with
// N worker threads (one shard per simulated node, conservative epochs at
// the 5 µs fabric latency). Results are bit-identical for any N >= 1; only
// wall-clock changes. Parallel runs record -benchjson entries under a
// "-wN" name suffix:
//
//	ncbench -exp scaleout -workers 4 -benchjson BENCH_PR7.json
//
// -cpuprofile/-memprofile write pprof profiles of the run; -benchjson
// records per-experiment wall-clock and allocation metrics; -benchgate
// compares the run's allocation metrics against a committed -benchjson
// baseline and exits non-zero if any shared experiment's alloc_bytes or allocs
// regresses by more than 5% (the CI gate — baselines must be produced with
// the same flags as the gated run):
//
//	ncbench -exp fig5b -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	ncbench -exp all -benchjson BENCH_PR3.json
//	ncbench -exp fig5b -benchgate BENCH_PR13.json
//
// -fault injects a deterministic fault schedule (a preset name or the
// fault.ParseSpec grammar) into the NFS experiments, replayable via
// -faultseed:
//
//	ncbench -exp fig4 -fault frame-loss
//	ncbench -exp fig5b -fault 'slowdisk:disk0:rate=0.5:delay=5ms' -faultseed 7
//	ncbench -exp transport -fault frame-loss  # loss recovery over UDP vs TCP
//	ncbench -exp fig-fault            # the Original-vs-NCache degradation table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ncache/internal/bench"
	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ncbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ncbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1,table2,fig4,fig5a,fig5b,fig6a,fig6b,fig7,transport,futurework,overhead,ablations,fig-fault,fig-fault-sweep,fig-avail,scaleout,writeback,all")
	warmup := fs.Duration("warmup", 150*time.Millisecond, "steady-state warm-up (virtual time)")
	window := fs.Duration("window", 600*time.Millisecond, "measurement window (virtual time)")
	concurrency := fs.Int("concurrency", 8, "outstanding requests per client host")
	scale := fs.Int("scale", 4, "memory-scale divisor for the macro experiments (1 = paper scale)")
	latency := fs.Bool("latency", false, "trace requests and print latency percentiles with per-layer attribution")
	traceOut := fs.String("trace", "", "write traced request timelines as chrome://tracing JSON to this file (implies tracing)")
	faultSpec := fs.String("fault", "", "fault schedule for the NFS experiments: a preset (frame-loss, slow-disk, cpu-burst) or fault.ParseSpec grammar")
	faultSeed := fs.Uint64("faultseed", 1, "seed for the fault injector's random streams (runs replay bit-for-bit per seed)")
	workers := fs.Int("workers", 0, "parallel-engine worker threads (0 = legacy single engine; results are identical for any value >= 1, only wall-clock changes)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (after the run, post-GC) to this file")
	benchJSON := fs.String("benchjson", "", "write per-experiment wall-clock and allocation metrics as JSON to this file")
	benchGate := fs.String("benchgate", "", "compare this run's allocation metrics against a baseline -benchjson file; exit non-zero on an alloc_bytes or allocs regression above 5%")
	speedupGate := fs.String("speedupgate", "", "compare this run's wall_ms against a baseline -benchjson file (matching experiments by name with any -wN suffix stripped); exit non-zero unless baseline/this >= -speedupmin")
	speedupMin := fs.Float64("speedupmin", 1.5, "minimum wall-clock speedup demanded by -speedupgate")
	epochMax := fs.Float64("epochmax", 0, "with -speedupgate: also require epochs <= this fraction of the baseline's epochs for experiments where both report them (host-independent; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ncbench: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ncbench: memprofile:", err)
			}
			f.Close()
		}()
	}
	opt := bench.Options{
		Warmup:      sim.Duration(*warmup),
		Window:      sim.Duration(*window),
		Concurrency: *concurrency,
		Scale:       *scale,
		Latency:     *latency,
		FaultSpec:   *faultSpec,
		FaultSeed:   *faultSeed,
		Workers:     *workers,
	}
	if *traceOut != "" {
		opt.Chrome = trace.NewChromeTrace()
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	// measured wraps one experiment run, recording wall-clock time,
	// allocation deltas and sharded-engine epoch statistics for the
	// -benchjson report. Parallel runs record under a -wN suffix so worker
	// counts never gate against each other (allocation totals differ with
	// the shard layout even though results are bit-identical).
	var records []benchRecord
	measured := func(name string, fn func() error) error {
		if *workers > 0 {
			name = fmt.Sprintf("%s-w%d", name, *workers)
		}
		passthru.TakeEngineStats() // drop tallies from earlier experiments
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := fn()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		st, _ := passthru.TakeEngineStats()
		records = append(records, benchRecord{
			Name:          name,
			WallMs:        float64(wall.Microseconds()) / 1e3,
			AllocBytes:    after.TotalAlloc - before.TotalAlloc,
			Allocs:        after.Mallocs - before.Mallocs,
			Epochs:        st.Epochs,
			SimEvents:     st.Events,
			StagedAdmits:  st.StagedAdmits,
			ExclusiveRuns: st.ExclusiveRuns,
			BarrierMs:     float64(st.BarrierNs) / 1e6,
		})
		return err
	}

	if want("table1") {
		ran = true
		fmt.Println(bench.FormatTable1(bench.Table1()))
	}
	if want("table2") {
		ran = true
		var rows []bench.Table2Row
		err := measured("table2", func() error {
			var e error
			rows, e = bench.Table2()
			return e
		})
		if err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		fmt.Println(bench.FormatTable2(rows))
	}
	if want("fig4") {
		ran = true
		var pts []bench.NFSPoint
		err := measured("fig4", func() error {
			var e error
			pts, e = bench.RunFig4(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("fig4: %w", err)
		}
		fmt.Println(bench.FormatNFSPoints(
			"Figure 4: NFS all-miss workload (throughput and server CPU vs request size)", pts))
		if opt.Latency {
			fmt.Println(bench.FormatLatency("Latency, fig4 (all-miss)", pts))
		}
	}
	if want("fig5a") {
		ran = true
		var pts []bench.NFSPoint
		err := measured("fig5a", func() error {
			var e error
			pts, e = bench.RunFig5a(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("fig5a: %w", err)
		}
		fmt.Println(bench.FormatNFSPoints(
			"Figure 5(a): NFS all-hit workload, one NIC (link-bound; watch CPU)", pts))
		if opt.Latency {
			fmt.Println(bench.FormatLatency("Latency, fig5a (all-hit, one NIC)", pts))
		}
	}
	if want("fig5b") {
		ran = true
		var pts []bench.NFSPoint
		err := measured("fig5b", func() error {
			var e error
			pts, e = bench.RunFig5b(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("fig5b: %w", err)
		}
		fmt.Println(bench.FormatNFSPoints(
			"Figure 5(b): NFS all-hit workload, two NICs (CPU-bound)", pts))
		if opt.Latency {
			table := bench.FormatLatency("Latency, fig5b (all-hit, two NICs)", pts)
			fmt.Println(table)
			if err := writeResult("fig5b-latency.txt", []byte(table)); err != nil {
				return err
			}
		}
	}
	if want("fig6a") {
		ran = true
		var pts []bench.WebPoint
		err := measured("fig6a", func() error {
			var e error
			pts, e = bench.RunFig6a(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("fig6a: %w", err)
		}
		fmt.Println(bench.FormatWebPoints(
			"Figure 6(a): kHTTPd SPECweb99-like load vs working-set size (paper-scale MB)",
			"wsMB", pts))
	}
	if want("fig6b") {
		ran = true
		var pts []bench.WebPoint
		err := measured("fig6b", func() error {
			var e error
			pts, e = bench.RunFig6b(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("fig6b: %w", err)
		}
		fmt.Println(bench.FormatWebPoints(
			"Figure 6(b): kHTTPd all-hit workload vs request size", "reqKB", pts))
	}
	if want("fig7") {
		ran = true
		var pts []bench.SFSPoint
		err := measured("fig7", func() error {
			var e error
			pts, e = bench.RunFig7(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("fig7: %w", err)
		}
		fmt.Println(bench.FormatSFSPoints(pts))
	}
	if want("fig-fault") {
		ran = true
		var pts []bench.FaultPoint
		err := measured("fig-fault", func() error {
			var e error
			pts, e = bench.RunFigFault(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("fig-fault: %w", err)
		}
		table := bench.FormatFaultPoints(pts)
		fmt.Println(table)
		if err := writeResult("fig-fault.txt", []byte(table)); err != nil {
			return err
		}
	}
	if *exp == "fig-fault-sweep" {
		// Explicit-only (not part of "all"): 12 full cluster runs.
		ran = true
		var pts []bench.SweepPoint
		err := measured("fig-fault-sweep", func() error {
			var e error
			pts, e = bench.RunFaultSweep(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("fig-fault-sweep: %w", err)
		}
		csv := bench.FormatFaultSweepCSV(pts)
		fmt.Print(csv)
		if err := writeResult("fig-fault.csv", []byte(csv)); err != nil {
			return err
		}
	}
	if *exp == "writeback" {
		// Explicit-only (not part of "all"): the durability-vs-throughput
		// comparison of the asynchronous write-back pipeline.
		ran = true
		var pts []bench.WritebackPoint
		err := measured("writeback", func() error {
			var e error
			pts, e = bench.RunWriteback(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("writeback: %w", err)
		}
		for _, p := range pts {
			if p.Arm != "wal" {
				continue
			}
			r := &records[len(records)-1]
			r.WALCommits = p.WALCommits
			r.MeanCommitRecs = p.MeanCommitRecs
			r.WALPeakDepth = p.WALPeakDepth
			r.FlushBatches = p.FlushBatches
			r.MeanBatchBlocks = p.MeanBatchBlocks
			r.DirtyPeakBytes = int64(p.DirtyPeakMB * 1e6)
			r.Stalls = p.Stalls
			r.StallMs = p.StallMs
		}
		table := bench.FormatWritebackPoints(pts)
		fmt.Println(table)
		if err := writeResult("fig-writeback.txt", []byte(table)); err != nil {
			return err
		}
	}
	if *exp == "fig-avail" {
		// Explicit-only (not part of "all"): the mirrored-volume availability
		// timeline plus the read-policy comparison — four full cluster runs.
		ran = true
		var rep bench.AvailReport
		err := measured("fig-avail", func() error {
			var e error
			rep, e = bench.RunAvail(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("fig-avail: %w", err)
		}
		table := bench.FormatAvail(rep)
		fmt.Println(table)
		if err := writeResult("fig-avail.txt", []byte(table)); err != nil {
			return err
		}
	}
	if *exp == "scaleout" {
		// Explicit-only (not part of "all"): four full cluster sweeps at
		// growing topology and client population.
		ran = true
		var pts []bench.ScaleoutPoint
		err := measured("scaleout", func() error {
			var e error
			pts, e = bench.RunScaleout(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("scaleout: %w", err)
		}
		table := bench.FormatScaleoutPoints(pts)
		fmt.Println(table)
		if err := writeResult("fig-scaleout.txt", []byte(table)); err != nil {
			return err
		}
	}
	if want("futurework") {
		ran = true
		var pts []bench.WireFormatPoint
		err := measured("futurework", func() error {
			var e error
			pts, e = bench.RunFutureWorkWireFormat(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("futurework: %w", err)
		}
		fmt.Println(bench.FormatWireFormatPoints(pts))
	}
	if want("transport") {
		ran = true
		var pts []bench.TransportPoint
		err := measured("transport", func() error {
			var e error
			pts, e = bench.RunTransportComparison(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("transport: %w", err)
		}
		fmt.Println(bench.FormatTransportPoints(pts))
	}
	if want("overhead") {
		ran = true
		var rep bench.OverheadReport
		err := measured("overhead", func() error {
			var e error
			rep, e = bench.RunOverheadBreakdown(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("overhead: %w", err)
		}
		fmt.Println(bench.FormatOverhead(rep))
	}
	if want("ablations") {
		ran = true
		var withRemap, withoutRemap bench.AblationResult
		err := measured("ablation-remap", func() error {
			var e error
			withRemap, withoutRemap, e = bench.RunAblationRemap(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("ablation remap: %w", err)
		}
		fmt.Printf("Ablation: FHO→LBN remapping\n  on:  %8.0f ops/s (remaps=%d, L2 hits=%d)\n  off: %8.0f ops/s (remaps=%d, L2 hits=%d)\n\n",
			withRemap.OpsPerSec, withRemap.Remaps, withRemap.L2Hits,
			withoutRemap.OpsPerSec, withoutRemap.Remaps, withoutRemap.L2Hits)

		var rows []bench.CopyCostRow
		err = measured("ablation-copycost", func() error {
			var e error
			rows, e = bench.RunAblationCopyCost(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("ablation copy cost: %w", err)
		}
		fmt.Println("Ablation: per-byte copy cost (all-hit, 32 KB, CPU-bound)")
		for _, r := range rows {
			fmt.Printf("  %.1f ns/B: original %6.1f MB/s, ncache %6.1f MB/s, gain %+.1f%%\n",
				r.NsPerByte, r.OriginalMBs, r.NCacheMBs, r.GainPct)
		}
		fmt.Println()

		var splits []bench.CacheSplitRow
		err = measured("ablation-cachesplit", func() error {
			var e error
			splits, e = bench.RunAblationCacheSplit(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("ablation cache split: %w", err)
		}
		fmt.Println("Ablation: memory split between FS cache and NCache (fixed budget)")
		for _, r := range splits {
			fmt.Printf("  fs=%2d MB: %6.1f MB/s (fs hit %.1f%%, L2 hits %d)\n",
				r.FSCacheMB, r.ThroughputMBs, r.FSHitPct, r.L2Hits)
		}
		fmt.Println()

		var on, off bench.AblationResult
		err = measured("ablation-checksum", func() error {
			var e error
			on, off, e = bench.RunAblationChecksum(opt)
			return e
		})
		if err != nil {
			return fmt.Errorf("ablation checksum: %w", err)
		}
		fmt.Printf("Ablation: NIC checksum offload\n  on:  ncache gain %+.1f%%\n  off: ncache gain %+.1f%% (inherited checksums spare the software walk)\n\n",
			on.GainPct, off.GainPct)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want one of table1,table2,fig4,fig5a,fig5b,fig6a,fig6b,fig7,transport,futurework,overhead,ablations,fig-fault,fig-fault-sweep,fig-avail,scaleout,writeback,all)", *exp)
	}
	if *benchGate != "" {
		if err := gateAllocations(*benchGate, records); err != nil {
			return err
		}
	}
	if *speedupGate != "" {
		if err := gateSpeedup(*speedupGate, *speedupMin, *epochMax, records); err != nil {
			return err
		}
	}
	if *benchJSON != "" {
		cmd := "ncbench -exp " + *exp
		if *workers > 0 {
			cmd = fmt.Sprintf("%s -workers %d", cmd, *workers)
		}
		rep := benchReport{
			Go:          runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			Gomaxprocs:  runtime.GOMAXPROCS(0),
			Command:     cmd,
			Experiments: records,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("benchjson: %w", err)
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("benchjson: %w", err)
		}
	}
	if opt.Chrome != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		if _, err := opt.Chrome.WriteTo(f); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}
	return nil
}

// benchRecord is one experiment's resource footprint: wall-clock time,
// heap-allocation deltas (runtime.MemStats), and — on the sharded engine —
// the coordinator's epoch statistics summed over the experiment's clusters.
// Epochs/SimEvents/StagedAdmits/ExclusiveRuns are pure functions of the
// simulated schedule (host-independent, identical for any worker count);
// WallMs and BarrierMs depend on the host, which is why the report also
// carries its CPU topology.
type benchRecord struct {
	Name          string  `json:"name"`
	WallMs        float64 `json:"wall_ms"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	Allocs        uint64  `json:"allocs"`
	Epochs        uint64  `json:"epochs,omitempty"`
	SimEvents     uint64  `json:"sim_events,omitempty"`
	StagedAdmits  uint64  `json:"staged_admits,omitempty"`
	ExclusiveRuns uint64  `json:"exclusive_runs,omitempty"`
	BarrierMs     float64 `json:"barrier_ms,omitempty"`
	// Write-back pipeline attribution (the writeback experiment's WAL arm):
	// group commits and their mean size, peak journal depth, coalesced flush
	// batches and their mean size, peak dirty memory, and admission stalls
	// at the high watermark.
	WALCommits      uint64  `json:"wal_commits,omitempty"`
	MeanCommitRecs  float64 `json:"mean_commit_records,omitempty"`
	WALPeakDepth    int64   `json:"wal_peak_depth,omitempty"`
	FlushBatches    uint64  `json:"flush_batches,omitempty"`
	MeanBatchBlocks float64 `json:"mean_batch_blocks,omitempty"`
	DirtyPeakBytes  int64   `json:"dirty_peak_bytes,omitempty"`
	Stalls          uint64  `json:"stalls,omitempty"`
	StallMs         float64 `json:"stall_ms,omitempty"`
}

// benchReport is the -benchjson document.
type benchReport struct {
	Go          string        `json:"go"`
	NumCPU      int           `json:"num_cpu"`
	Gomaxprocs  int           `json:"gomaxprocs"`
	Command     string        `json:"command"`
	Experiments []benchRecord `json:"experiments"`
}

// gateAllocations enforces the allocation-regression gate: every experiment
// this run shares with the baseline report must stay within 5% of the
// baseline's alloc_bytes and of its allocs. Wall-clock is reported but never
// gated (too noisy on shared CI runners); both allocation counts are
// deterministic for the single-threaded simulation.
func gateAllocations(path string, records []benchRecord) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("benchgate: %s: %w", path, err)
	}
	baseline := make(map[string]benchRecord, len(base.Experiments))
	for _, e := range base.Experiments {
		baseline[e.Name] = e
	}
	const tolerancePct = 5.0
	var bad []string
	checked := 0
	for _, r := range records {
		b, ok := baseline[r.Name]
		if !ok || b.AllocBytes == 0 || b.Allocs == 0 {
			continue
		}
		checked++
		for _, m := range []struct {
			metric    string
			got, base uint64
		}{{"alloc_bytes", r.AllocBytes, b.AllocBytes}, {"allocs", r.Allocs, b.Allocs}} {
			deltaPct := (float64(m.got)/float64(m.base) - 1) * 100
			fmt.Printf("benchgate: %-20s %-11s %14d vs baseline %14d (%+.2f%%)\n",
				r.Name, m.metric, m.got, m.base, deltaPct)
			if deltaPct > tolerancePct {
				bad = append(bad, fmt.Sprintf("%s %s %+.2f%%", r.Name, m.metric, deltaPct))
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("benchgate: no experiments in common with %s", path)
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchgate: allocation regressed more than %.0f%%: %s",
			tolerancePct, strings.Join(bad, ", "))
	}
	return nil
}

// stripWorkers removes a -wN worker suffix from a benchRecord name, so a
// parallel run ("scaleout-w4") matches its sequential baseline ("scaleout"
// or "scaleout-w1") across reports.
func stripWorkers(name string) string {
	if i := strings.LastIndex(name, "-w"); i > 0 {
		digits := name[i+2:]
		if len(digits) > 0 && strings.Trim(digits, "0123456789") == "" {
			return name[:i]
		}
	}
	return name
}

// gateSpeedup enforces the parallel-engine wall-clock gate: every experiment
// this run shares with the baseline (worker suffixes stripped on both sides)
// must run at least min times faster than the baseline recorded. Used by CI
// to require the Workers=N engine to beat its Workers=1 oracle on the same
// topology; meaningful only on a multi-core runner. When epochMax > 0 the
// gate also requires epochs <= epochMax × baseline epochs wherever both
// reports carry epoch counts — unlike wall-clock, the epoch count is a pure
// function of the simulated schedule, so this half of the gate holds on any
// host, single-core CI runners included.
func gateSpeedup(path string, min, epochMax float64, records []benchRecord) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("speedupgate: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("speedupgate: %s: %w", path, err)
	}
	baseline := make(map[string]benchRecord, len(base.Experiments))
	for _, e := range base.Experiments {
		baseline[stripWorkers(e.Name)] = e
	}
	var bad []string
	checked := 0
	for _, r := range records {
		b, ok := baseline[stripWorkers(r.Name)]
		if !ok || b.WallMs == 0 || r.WallMs == 0 {
			continue
		}
		checked++
		speedup := b.WallMs / r.WallMs
		fmt.Printf("speedupgate: %-20s wall_ms %10.1f vs baseline %10.1f (%.2fx)\n",
			r.Name, r.WallMs, b.WallMs, speedup)
		if speedup < min {
			bad = append(bad, fmt.Sprintf("%s %.2fx < %.2fx", r.Name, speedup, min))
		}
		if epochMax > 0 && b.Epochs > 0 && r.Epochs > 0 {
			limit := uint64(epochMax * float64(b.Epochs))
			fmt.Printf("speedupgate: %-20s epochs  %10d vs baseline %10d (limit %d)\n",
				r.Name, r.Epochs, b.Epochs, limit)
			if r.Epochs > limit {
				bad = append(bad, fmt.Sprintf("%s epochs %d > %.2f x %d", r.Name, r.Epochs, epochMax, b.Epochs))
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("speedupgate: no experiments in common with %s", path)
	}
	if len(bad) > 0 {
		return fmt.Errorf("speedupgate: wall-clock speedup below target: %s", strings.Join(bad, ", "))
	}
	return nil
}

// writeResult stores a rendered table under results/.
func writeResult(name string, data []byte) error {
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("results", name), data, 0o644)
}
