// Command ncbench regenerates the tables and figures of "Network-Centric
// Buffer Cache Organization" (ICDCS 2005) on the simulated testbed.
//
// Usage:
//
//	ncbench -exp all                 # every table and figure
//	ncbench -exp fig5b -window 1s -concurrency 16
//
// The experiments are the registry in internal/bench/registry.go (`ncbench
// -h` lists them); "all" runs the paper's tables and figures plus the
// ablations. The longer sweeps are explicit-only — fig-fault-sweep,
// writeback, fig-avail and scaleout — and, like fig-fault, store their table
// under results/ (fig5b stores its -latency table). Shrink the virtual-time
// window for a quick smoke:
//
//	ncbench -exp scaleout -window 200ms -scale 8
//
// -cpuprofile/-memprofile write pprof profiles of the run; -benchjson
// records per-experiment allocations, the clusters built, executed events
// and the simulated headline (allocs counts every allocation of the run,
// each cluster's build and pool warm-up included, so it grows with clusters
// as well as with the steady state); -benchgate compares the run against a
// committed -benchjson baseline and exits non-zero if any shared
// experiment's alloc_bytes or allocs regresses by more than 5% or its
// sim_events exceeds the baseline's at all (the CI gate — baselines must be
// produced with the same flags as the gated run):
//
//	ncbench -exp fig5b -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	ncbench -exp fig5b,fig4,fig7,scaleout,writeback -benchgate BENCH.json
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
	exp := fs.String("exp", "all", "experiments, comma-separated: "+bench.Usage())
	warmup := fs.Duration("warmup", 150*time.Millisecond, "steady-state warm-up (virtual time)")
	window := fs.Duration("window", 600*time.Millisecond, "measurement window (virtual time)")
	concurrency := fs.Int("concurrency", 8, "outstanding requests per client host")
	scale := fs.Int("scale", 4, "memory-scale divisor for the macro experiments (1 = paper scale)")
	latency := fs.Bool("latency", false, "trace requests and print latency percentiles with per-layer attribution")
	traceOut := fs.String("trace", "", "write traced request timelines as chrome://tracing JSON to this file (implies tracing)")
	faultSpec := fs.String("fault", "", "fault schedule for the NFS experiments: a preset (frame-loss, slow-disk, cpu-burst) or fault.ParseSpec grammar")
	faultSeed := fs.Uint64("faultseed", 1, "seed for the fault injector's random streams (runs replay bit-for-bit per seed)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (after the run, post-GC) to this file")
	benchJSON := fs.String("benchjson", "", "write per-experiment allocation, event and headline metrics as JSON to this file")
	benchGate := fs.String("benchgate", "", "compare this run against a baseline -benchjson file; exit non-zero on an alloc_bytes or allocs regression above 5% or any sim_events increase (allocs includes each cluster's pool warm-up)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected := bench.Select(*exp)
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (want one of %s)", *exp, bench.Usage())
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
	}
	if *traceOut != "" {
		opt.Chrome = trace.NewChromeTrace()
	}

	var records []bench.Record
	for _, e := range selected {
		res, rec, err := e.Measure(opt)
		if err != nil {
			return err
		}
		records = append(records, rec)
		fmt.Print(res.Text)
		if e.ResultFile != "" && res.File != "" {
			if err := os.MkdirAll("results", 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join("results", e.ResultFile), []byte(res.File), 0o644); err != nil {
				return err
			}
		}
	}
	if *benchGate != "" {
		if err := gate(*benchGate, records); err != nil {
			return err
		}
	}
	if *benchJSON != "" {
		rep := benchReport{
			Go:          runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			Gomaxprocs:  runtime.GOMAXPROCS(0),
			Command:     "ncbench " + strings.Join(args, " "),
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

// benchReport is the -benchjson document.
type benchReport struct {
	Go          string         `json:"go"`
	NumCPU      int            `json:"num_cpu"`
	Gomaxprocs  int            `json:"gomaxprocs"`
	Command     string         `json:"command"`
	Experiments []bench.Record `json:"experiments"`
}

// gate enforces the host-cost regression gate against the baseline
// -benchjson report, for every experiment this run shares with it: alloc_bytes
// and allocs must stay within 5% of the baseline's, and sim_events must not
// exceed it. Both allocation counts are deterministic for the single-threaded
// simulation; the event count is a pure function of the simulated schedule,
// so it is compared exactly.
func gate(path string, records []bench.Record) error {
	const tolerancePct = 5.0
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("benchgate: %s: %w", path, err)
	}
	baseline := make(map[string]bench.Record, len(base.Experiments))
	for _, e := range base.Experiments {
		baseline[e.Name] = e
	}
	var bad []string
	checked := 0
	for _, r := range records {
		b, found := baseline[r.Name]
		if !found {
			continue
		}
		checked++
		for _, m := range []struct {
			metric    string
			got, base uint64
			limitPct  float64
		}{
			{"alloc_bytes", r.AllocBytes, b.AllocBytes, tolerancePct},
			{"allocs", r.Allocs, b.Allocs, tolerancePct},
			{"sim_events", r.SimEvents, b.SimEvents, 0},
		} {
			if m.base == 0 {
				continue
			}
			deltaPct := (float64(m.got)/float64(m.base) - 1) * 100
			fmt.Printf("benchgate: %-20s %-11s %14d vs baseline %14d (%+.2f%%)\n",
				r.Name, m.metric, m.got, m.base, deltaPct)
			if deltaPct > m.limitPct {
				bad = append(bad, fmt.Sprintf("%s %s regressed to %d from %d (%+.2f%%, limit %.0f%%)",
					r.Name, m.metric, m.got, m.base, deltaPct, m.limitPct))
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("benchgate: no experiments in common with %s", path)
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchgate: %s", strings.Join(bad, ", "))
	}
	return nil
}
