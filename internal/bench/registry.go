package bench

import (
	"fmt"
	"runtime"
	"strings"

	"ncache/internal/passthru"
)

// Experiment is one entry of the registry: everything cmd/ncbench, the
// `go test -bench` loop, the replay sweeps and the CI results gate need to
// know about a table or figure.
type Experiment struct {
	Name string
	// InAll marks the experiments `-exp all` runs; the rest are
	// explicit-only (long sweeps and the post-paper extensions).
	InAll bool
	// ResultFile, when set, is where ncbench stores Result.File under
	// results/ — the committed captures CI regenerates and diffs.
	ResultFile string
	Run        func(Options) (Result, error)
}

// Result is one experiment run in every shape its consumers read it.
type Result struct {
	// Points is the experiment's point slice or report: plain data, so
	// replay tests compare two runs with reflect.DeepEqual.
	Points any
	// Text is exactly what ncbench prints; File is what it stores in the
	// experiment's ResultFile (empty: nothing to store this run).
	Text, File string
	// Headline holds the simulated headline numbers — what `go test -bench`
	// reports as custom metrics and -benchjson records next to the host
	// cost.
	Headline map[string]float64
	// SimEvents sums the events executed by every cluster the run built;
	// Clusters counts them.
	SimEvents uint64
	Clusters  int
}

// Experiments is the registry, in `-exp all` print order. Adding an
// experiment is one entry here.
var Experiments = []Experiment{
	{Name: "table1", InAll: true, Run: run(
		func(*harness) ([]Table1Row, error) { return Table1(), nil },
		func(rows []Table1Row, _ Options) Result { return table(FormatTable1(rows)) })},
	{Name: "table2", InAll: true, Run: run(table2,
		func(rows []Table2Row, _ Options) Result { return table(FormatTable2(rows)) })},
	{Name: "fig4", InAll: true, Run: run(fig4, nfsFigure(
		"Figure 4: NFS all-miss workload (throughput and server CPU vs request size)",
		"Latency, fig4 (all-miss)",
		func(p []NFSPoint) map[string]float64 {
			return map[string]float64{
				"ncache_gain_%@32KB": gainAt(p, passthru.NCache, 32),
				"ncache_gain_%@16KB": gainAt(p, passthru.NCache, 16),
			}
		}))},
	{Name: "fig5a", InAll: true, Run: run(fig5(1), nfsFigure(
		"Figure 5(a): NFS all-hit workload, one NIC (link-bound; watch CPU)",
		"Latency, fig5a (all-hit, one NIC)",
		func(p []NFSPoint) map[string]float64 {
			// The paper's quantity here is CPU saved at fixed (link-bound)
			// throughput.
			idx := nfsByMode(p)
			saved := idx[passthru.Original][32].ServerCPU - idx[passthru.NCache][32].ServerCPU
			return map[string]float64{"cpu_saving_pts@32KB": saved * 100}
		}))},
	{Name: "fig5b", InAll: true, ResultFile: "fig5b-latency.txt", Run: run(fig5(2), nfsFigure(
		"Figure 5(b): NFS all-hit workload, two NICs (CPU-bound)",
		"Latency, fig5b (all-hit, two NICs)",
		func(p []NFSPoint) map[string]float64 {
			return map[string]float64{
				"ncache_gain_%@32KB":   gainAt(p, passthru.NCache, 32),
				"baseline_gain_%@16KB": gainAt(p, passthru.Baseline, 16),
			}
		}))},
	{Name: "fig6a", InAll: true, Run: run(fig6a, webFigure(
		"Figure 6(a): kHTTPd SPECweb99-like load vs working-set size (paper-scale MB)", "wsMB", 500, "MB"))},
	{Name: "fig6b", InAll: true, Run: run(fig6b, webFigure(
		"Figure 6(b): kHTTPd all-hit workload vs request size", "reqKB", 128, "KB"))},
	{Name: "fig7", InAll: true, Run: run(fig7, func(pts []SFSPoint, _ Options) Result {
		r := table(FormatSFSPoints(pts))
		ops := map[passthru.Mode]map[int]float64{passthru.Original: {}, passthru.NCache: {}, passthru.Baseline: {}}
		for _, p := range pts {
			ops[p.Mode][p.RegularDataPct] = p.OpsPerSec
		}
		r.Headline = map[string]float64{
			"ncache_gain_%@30%data": gainPct(ops[passthru.NCache][30], ops[passthru.Original][30]),
			"ncache_gain_%@75%data": gainPct(ops[passthru.NCache][75], ops[passthru.Original][75]),
		}
		return r
	})},
	{Name: "fig-fault", InAll: true, ResultFile: "fig-fault.txt", Run: run(figFault,
		func(pts []FaultPoint, _ Options) Result { return table(FormatFaultPoints(pts)) })},
	// Explicit-only: 12 full cluster runs.
	{Name: "fig-fault-sweep", ResultFile: "fig-fault.csv", Run: run(faultSweep,
		func(pts []SweepPoint, _ Options) Result {
			csv := FormatFaultSweepCSV(pts)
			return Result{Text: csv, File: csv}
		})},
	// Explicit-only: the durability-vs-throughput comparison of the
	// asynchronous write-back pipeline. The headline is the WAL arm's gain
	// over sync and its pipeline attribution.
	{Name: "writeback", ResultFile: "fig-writeback.txt", Run: run(writeback,
		func(pts []WritebackPoint, _ Options) Result {
			r := table(FormatWritebackPoints(pts))
			sync, wal := pts[0], pts[1] // WritebackArms order
			r.Headline = map[string]float64{
				"wal_gain_%":          gainPct(wal.OpsPerSec, sync.OpsPerSec),
				"wal_commits":         float64(wal.WALCommits),
				"mean_commit_records": wal.MeanCommitRecs,
				"wal_peak_depth":      float64(wal.WALPeakDepth),
				"flush_batches":       float64(wal.FlushBatches),
				"mean_batch_blocks":   wal.MeanBatchBlocks,
				"dirty_peak_bytes":    wal.DirtyPeakMB * 1e6,
				"stalls":              float64(wal.Stalls),
				"stall_ms":            wal.StallMs,
			}
			return r
		})},
	// Explicit-only: the mirrored-volume availability timeline plus the
	// read-policy comparison — four full cluster runs.
	{Name: "fig-avail", ResultFile: "fig-avail.txt", Run: run(avail,
		func(rep AvailReport, _ Options) Result {
			r := table(FormatAvail(rep))
			r.Headline = map[string]float64{
				"healthy_ops/s":   rep.HealthyOps,
				"outage_ops/s":    rep.OutageOps,
				"recovered_ops/s": rep.RecoveredOps,
			}
			return r
		})},
	// Explicit-only: four full cluster sweeps at growing topology and
	// client population.
	{Name: "scaleout", ResultFile: "fig-scaleout.txt", Run: run(scaleout,
		func(pts []ScaleoutPoint, _ Options) Result {
			r := table(FormatScaleoutPoints(pts))
			r.Headline = map[string]float64{}
			for _, p := range pts {
				r.Headline[fmt.Sprintf("MBs@%dsrv", p.Servers)] = p.ThroughputMBs
			}
			return r
		})},
	{Name: "futurework", InAll: true, Run: run(futurework,
		func(pts []WireFormatPoint, _ Options) Result {
			r := table(FormatWireFormatPoints(pts))
			var classic, wf float64
			for _, p := range pts {
				if p.Mode == passthru.NCache && p.WireFormat {
					wf = p.ThroughputMBs
				} else if p.Mode == passthru.NCache {
					classic = p.ThroughputMBs
				}
			}
			r.Headline = map[string]float64{"ncache_gain_%_wireformat": gainPct(wf, classic)}
			return r
		})},
	{Name: "transport", InAll: true, Run: run(transport,
		func(pts []TransportPoint, _ Options) Result {
			r := table(FormatTransportPoints(pts))
			r.Headline = map[string]float64{}
			for _, p := range pts {
				if p.Mode == passthru.NCache {
					r.Headline["ncache_MBs_"+p.Transport] = p.ThroughputMBs
				}
			}
			return r
		})},
	{Name: "overhead", InAll: true, Run: run(overhead,
		func(rep OverheadReport, _ Options) Result {
			r := table(FormatOverhead(rep))
			r.Headline = map[string]float64{
				"overhead_us/op": (rep.NCacheCPUPerOpNs - rep.BaselineCPUPerOpNs) / 1000,
				"accounted_%":    rep.AccountedPct,
			}
			return r
		})},
	{Name: "ablations", InAll: true, Run: run(ablations,
		func(rep AblationReport, _ Options) Result {
			r := Result{Text: FormatAblations(rep)}
			r.Headline = map[string]float64{
				"ops/s_remap_on":            rep.RemapOn.OpsPerSec,
				"ops/s_remap_off":           rep.RemapOff.OpsPerSec,
				"gain_spread_pts":           rep.CopyCost[len(rep.CopyCost)-1].GainPct - rep.CopyCost[0].GainPct,
				"ncache_gain_%_offload_on":  rep.OffloadOn.GainPct,
				"ncache_gain_%_offload_off": rep.OffloadOff.GainPct,
			}
			return r
		})},
}

// run adapts a typed experiment function and its renderer to
// Experiment.Run: defaults applied once, every cluster retired, the events
// executed summed over all of them.
func run[P any](fn func(*harness) (P, error), render func(P, Options) Result) func(Options) (Result, error) {
	return func(opt Options) (Result, error) {
		h := newHarness(opt)
		pts, err := fn(h)
		h.retire()
		if err != nil {
			return Result{}, err
		}
		res := render(pts, h.opt)
		res.Points, res.SimEvents, res.Clusters = pts, h.events, h.clusters
		return res, nil
	}
}

// table is the common Result shape: the rendered table printed with a
// blank line after it, and stored as is.
func table(s string) Result { return Result{Text: s + "\n", File: s} }

// nfsFigure renders a Figure 4/5 sweep: the throughput table, plus — under
// Options.Latency — the latency-percentile table, which is also what the
// figure stores.
func nfsFigure(title, latTitle string, headline func([]NFSPoint) map[string]float64) func([]NFSPoint, Options) Result {
	return func(pts []NFSPoint, opt Options) Result {
		r := Result{Text: FormatNFSPoints(title, pts) + "\n", Headline: headline(pts)}
		if opt.Latency {
			r.File = FormatLatency(latTitle, pts)
			r.Text += r.File + "\n"
		}
		return r
	}
}

// webFigure renders a Figure 6 sweep; the headline is NCache's gain at one
// parameter value.
func webFigure(title, param string, at int, unit string) func([]WebPoint, Options) Result {
	return func(pts []WebPoint, _ Options) Result {
		r := table(FormatWebPoints(title, param, pts))
		var base, nc float64
		for _, p := range pts {
			if p.ParamKB == at && p.Mode == passthru.Original {
				base = p.ThroughputMBs
			} else if p.ParamKB == at && p.Mode == passthru.NCache {
				nc = p.ThroughputMBs
			}
		}
		r.Headline = map[string]float64{fmt.Sprintf("ncache_gain_%%@%d%s", at, unit): gainPct(nc, base)}
		return r
	}
}

// Select resolves an -exp argument, a comma-separated list: "all" is every
// InAll experiment in registry order, a name is that experiment. A list
// with an element that is neither resolves to nil.
func Select(names string) []Experiment {
	var out []Experiment
	for _, name := range strings.Split(names, ",") {
		n := len(out)
		for _, e := range Experiments {
			if e.Name == name || (name == "all" && e.InAll) {
				out = append(out, e)
			}
		}
		if len(out) == n {
			return nil
		}
	}
	return out
}

// Usage lists what -exp accepts, for flag help and error messages.
func Usage() string {
	names := make([]string, 0, len(Experiments)+1)
	for _, e := range Experiments {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "all"), ",")
}

// Record is one experiment's -benchjson line: the host cost of the run
// (heap-allocation deltas from runtime.MemStats, so allocs includes each
// cluster's build and pool warm-up besides its steady state), how many
// clusters the run built, the events they executed, and the simulated
// headline. Clusters, SimEvents and the headline are pure functions of the
// simulated schedule (host-independent).
type Record struct {
	Name       string             `json:"name"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Allocs     uint64             `json:"allocs"`
	Clusters   int                `json:"clusters"`
	SimEvents  uint64             `json:"sim_events,omitempty"`
	Headline   map[string]float64 `json:"headline,omitempty"`
}

// Measure runs the experiment and returns its result with the record of
// what the run cost.
func (e Experiment) Measure(opt Options) (Result, Record, error) {
	rec := Record{Name: e.Name}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := e.Run(opt)
	runtime.ReadMemStats(&after)
	rec.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rec.Allocs = after.Mallocs - before.Mallocs
	rec.Clusters, rec.SimEvents, rec.Headline = res.Clusters, res.SimEvents, res.Headline
	if err != nil {
		err = fmt.Errorf("%s: %w", e.Name, err)
	}
	return res, rec, err
}
