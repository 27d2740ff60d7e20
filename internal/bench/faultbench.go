package bench

import (
	"fmt"
	"strings"

	"ncache/internal/fault"
	"ncache/internal/passthru"
)

// FaultScenarios is the degradation sweep of the fig-fault experiment: a
// fault-free baseline plus the three canonical schedules (fault.Presets).
var FaultScenarios = []string{"none", "frame-loss", "slow-disk", "cpu-burst"}

// FaultModes are the configurations the degradation table compares. Baseline
// is omitted: the paper's question is whether NCache's extra machinery makes
// the server more fragile than the Original pass-through under stress.
var FaultModes = []passthru.Mode{passthru.Original, passthru.NCache}

// FaultPoint is one (mode, scenario) cell of the degradation table.
type FaultPoint struct {
	Scenario string
	NFSPoint
}

// figFault measures Original and NCache under identical fault schedules:
// the all-miss sequential-read workload (disk, network and CPU all on the
// critical path) at a fixed 16 KB request size, once fault-free and once per
// preset schedule, all replayed from Options.FaultSeed. Latency tracing is
// always on so each point carries per-layer fault attribution.
func figFault(h *harness) ([]FaultPoint, error) {
	h.opt.Latency = true
	var out []FaultPoint
	for _, mode := range FaultModes {
		for _, sc := range FaultScenarios {
			spec := sc
			if sc == "none" {
				spec = ""
			}
			p, err := faultPoint(h, mode, spec)
			if err != nil {
				return nil, fmt.Errorf("fig-fault %s %s: %w", mode, sc, err)
			}
			out = append(out, FaultPoint{Scenario: sc, NFSPoint: p})
		}
	}
	return out, nil
}

// SweepRates are the frame-loss probabilities of the fig-fault-sweep
// experiment: a fault-free anchor plus a log-ish ramp through the regime
// where RPC retransmission starts dominating tail latency.
var SweepRates = []float64{0, 0.0005, 0.001, 0.002, 0.005, 0.01}

// SweepPoint is one (mode, drop rate) cell of the degradation curve.
type SweepPoint struct {
	DropRate float64
	NFSPoint
}

// faultSweep measures the same all-miss read point as figFault under a
// swept client-side frame-drop rate, for Original and NCache. The output
// feeds results/fig-fault.csv (degradation vs fault rate, one curve per
// configuration); every run replays from Options.FaultSeed.
func faultSweep(h *harness) ([]SweepPoint, error) {
	h.opt.Latency = true
	var out []SweepPoint
	for _, mode := range FaultModes {
		for _, rate := range SweepRates {
			spec := ""
			if rate > 0 {
				spec = fmt.Sprintf("drop:client*:rate=%g", rate)
			}
			p, err := faultPoint(h, mode, spec)
			if err != nil {
				return nil, fmt.Errorf("fig-fault-sweep %s rate=%g: %w", mode, rate, err)
			}
			out = append(out, SweepPoint{DropRate: rate, NFSPoint: p})
		}
	}
	return out, nil
}

// FormatFaultSweepCSV renders the sweep as CSV for plotting: one row per
// (config, rate) with throughput, p99 and the recovery counters.
func FormatFaultSweepCSV(points []SweepPoint) string {
	var b strings.Builder
	b.WriteString("config,drop_rate,mb_per_s,ops_per_s,read_p99_us,retransmits,rpc_timeouts,dup_replies,errors\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%g,%.1f,%.0f,%.1f,%d,%d,%d,%d\n",
			p.Mode, p.DropRate, p.ThroughputMBs, p.OpsPerSec, readP99(p.NFSPoint),
			p.RPCRetransmits, p.RPCTimeouts, p.DupReplies, p.Errors)
	}
	return b.String()
}

// faultPoint is the fig4-style all-miss point the fault experiments
// perturb: 16 KB reads under the given schedule.
func faultPoint(h *harness, mode passthru.Mode, spec string) (NFSPoint, error) {
	cl, load, err := h.missRig(passthru.ClusterConfig{
		Mode:      mode,
		FaultSpec: spec,
		FaultSeed: h.opt.FaultSeed,
	}, int64(96*1024)/int64(h.opt.Scale), 16, nil)
	if err != nil {
		return NFSPoint{}, err
	}
	return h.nfsPoint(cl, load)
}

// readP99 extracts the read operation's p99 latency (µs) from a traced
// point.
func readP99(p NFSPoint) float64 { return opP99Us(p.Lat, "read") }

// faultShare sums fault-attributed latency per layer for the read op,
// returning the two dominant entries as "layer=µs" strings.
func faultShare(p NFSPoint) string {
	for _, op := range p.Lat.Ops {
		if op.Op != "read" {
			continue
		}
		var parts []string
		for _, ls := range op.Layers {
			if ls.FaultCount == 0 {
				continue
			}
			perOp := float64(ls.Fault) / float64(op.Count) / 1e3
			parts = append(parts, fmt.Sprintf("%s=%d/%.1fµs", ls.Layer, ls.FaultCount, perOp))
		}
		return strings.Join(parts, " ")
	}
	return ""
}

// FormatFaultPoints renders the degradation table: throughput and read p99
// per scenario per mode, each scenario's slowdown relative to the same
// mode's fault-free run, recovery counters, and per-layer fault attribution
// (count/avg-injected-latency per affected request).
func FormatFaultPoints(points []FaultPoint) string {
	base := make(map[passthru.Mode]FaultPoint)
	for _, p := range points {
		if p.Scenario == "none" {
			base[p.Mode] = p
		}
	}
	var b strings.Builder
	b.WriteString("fig-fault: degradation under injected faults (all-miss 16KB read)\n")
	fmt.Fprintf(&b, "%-10s %-11s %9s %8s %10s %8s %7s %7s %6s %6s\n",
		"config", "fault", "MB/s", "vs none", "p99_µs", "vs none",
		"retrans", "iscsiR", "dupRx", "errs")
	for _, mode := range FaultModes {
		for _, p := range points {
			if p.Mode != mode {
				continue
			}
			tputRel, p99Rel := "", ""
			if bp, ok := base[mode]; ok && p.Scenario != "none" {
				tputRel = fmt.Sprintf("%+.1f%%", gainPct(p.ThroughputMBs, bp.ThroughputMBs))
				p99Rel = fmt.Sprintf("%+.1f%%", gainPct(readP99(p.NFSPoint), readP99(bp.NFSPoint)))
			}
			fmt.Fprintf(&b, "%-10s %-11s %9.1f %8s %10.1f %8s %7d %7d %6d %6d\n",
				mode, p.Scenario, p.ThroughputMBs, tputRel, readP99(p.NFSPoint), p99Rel,
				p.RPCRetransmits, p.ISCSIRetries, p.DupReplies, p.Errors)
		}
	}
	b.WriteString("\nper-layer fault attribution (injections / avg injected+recovery latency per read):\n")
	for _, p := range points {
		if s := faultShare(p.NFSPoint); s != "" {
			fmt.Fprintf(&b, "  %-10s %-11s %s\n", p.Mode, p.Scenario, s)
		}
	}
	b.WriteString("\ninjected schedules:\n")
	for _, p := range points {
		if len(p.FaultReport) == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s/%s:\n%s", p.Mode, p.Scenario, fault.FormatReport(p.FaultReport))
	}
	return b.String()
}
