package bench

import (
	"fmt"
	"strings"

	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// gainPct returns the percentage gain of v over base.
func gainPct(v, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return (v/base - 1) * 100
}

// nfsByMode indexes points for gain computation.
func nfsByMode(points []NFSPoint) map[passthru.Mode]map[int]NFSPoint {
	out := make(map[passthru.Mode]map[int]NFSPoint)
	for _, p := range points {
		if out[p.Mode] == nil {
			out[p.Mode] = make(map[int]NFSPoint)
		}
		out[p.Mode][p.ReqKB] = p
	}
	return out
}

// gainAt returns a mode's throughput gain (%) over Original at one size.
func gainAt(points []NFSPoint, mode passthru.Mode, reqKB int) float64 {
	idx := nfsByMode(points)
	return gainPct(idx[mode][reqKB].ThroughputMBs, idx[passthru.Original][reqKB].ThroughputMBs)
}

// FormatNFSPoints renders a Figure 4/5-style table: throughput, server and
// storage CPU per request size per mode, with gains over Original.
func FormatNFSPoints(title string, points []NFSPoint) string {
	idx := nfsByMode(points)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %6s %12s %9s %9s %9s %9s %10s\n",
		"config", "reqKB", "MB/s", "ops/s", "srvCPU%", "stoCPU%", "link%", "vs orig")
	for _, mode := range Modes {
		for _, p := range points {
			if p.Mode != mode {
				continue
			}
			gain := ""
			if mode != passthru.Original {
				if base, ok := idx[passthru.Original][p.ReqKB]; ok {
					gain = fmt.Sprintf("%+.1f%%", gainPct(p.ThroughputMBs, base.ThroughputMBs))
				}
			}
			fmt.Fprintf(&b, "%-10s %6d %12.1f %9.0f %9.1f %9.1f %9.1f %10s\n",
				mode, p.ReqKB, p.ThroughputMBs, p.OpsPerSec,
				p.ServerCPU*100, p.StorageCPU*100, p.LinkUtil*100, gain)
		}
	}
	return b.String()
}

// us renders a virtual duration in microseconds.
func us(d sim.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1e3) }

// FormatLatency renders the latency-percentile table for traced points
// (Options.Latency): percentiles in microseconds, then each layer's share
// of the end-to-end latency. Points without traces are skipped.
func FormatLatency(title string, points []NFSPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %6s %-6s %7s %9s %9s %9s %9s %9s %9s",
		"config", "reqKB", "op", "count", "mean_µs", "p50_µs", "p90_µs", "p99_µs", "p999_µs", "max_µs")
	for l := trace.Layer(0); l < trace.NumLayers; l++ {
		fmt.Fprintf(&b, " %6s%%", l)
	}
	b.WriteByte('\n')
	var attrErrs uint64
	for _, mode := range Modes {
		for _, p := range points {
			if p.Mode != mode || p.Lat == nil {
				continue
			}
			attrErrs += p.Lat.AttrErrors
			for _, op := range p.Lat.Ops {
				fmt.Fprintf(&b, "%-10s %6d %-6s %7d %9s %9s %9s %9s %9s %9s",
					mode, p.ReqKB, op.Op, op.Count,
					us(op.Mean), us(op.P50), us(op.P90), us(op.P99), us(op.P999), us(op.Max))
				for _, ls := range op.Layers {
					pct := 0.0
					if op.Total > 0 {
						pct = float64(ls.Total) / float64(op.Total) * 100
					}
					fmt.Fprintf(&b, " %6.1f", pct)
				}
				b.WriteByte('\n')
			}
		}
	}
	if attrErrs > 0 {
		fmt.Fprintf(&b, "WARNING: %d spans failed per-layer attribution (sum != duration)\n", attrErrs)
	}
	return b.String()
}

// FormatWebPoints renders a Figure 6-style table.
func FormatWebPoints(title, paramName string, points []WebPoint) string {
	base := make(map[int]WebPoint)
	for _, p := range points {
		if p.Mode == passthru.Original {
			base[p.ParamKB] = p
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %8s %12s %9s %9s %9s %10s\n",
		"config", paramName, "MB/s", "ops/s", "srvCPU%", "hit%", "vs orig")
	for _, mode := range Modes {
		for _, p := range points {
			if p.Mode != mode {
				continue
			}
			gain := ""
			if mode != passthru.Original {
				if bp, ok := base[p.ParamKB]; ok {
					gain = fmt.Sprintf("%+.1f%%", gainPct(p.ThroughputMBs, bp.ThroughputMBs))
				}
			}
			fmt.Fprintf(&b, "%-10s %8d %12.1f %9.0f %9.1f %9.1f %10s\n",
				mode, p.ParamKB, p.ThroughputMBs, p.OpsPerSec,
				p.ServerCPU*100, p.HitRatio*100, gain)
		}
	}
	return b.String()
}

// FormatSFSPoints renders the Figure 7 table.
func FormatSFSPoints(points []SFSPoint) string {
	base := make(map[int]SFSPoint)
	for _, p := range points {
		if p.Mode == passthru.Original {
			base[p.RegularDataPct] = p
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: SPECsfs-like throughput vs regular-data fraction\n")
	fmt.Fprintf(&b, "%-10s %8s %9s %9s %10s\n", "config", "data%", "ops/s", "srvCPU%", "vs orig")
	for _, mode := range Modes {
		for _, p := range points {
			if p.Mode != mode {
				continue
			}
			gain := ""
			if mode != passthru.Original {
				if bp, ok := base[p.RegularDataPct]; ok {
					gain = fmt.Sprintf("%+.1f%%", gainPct(p.OpsPerSec, bp.OpsPerSec))
				}
			}
			fmt.Fprintf(&b, "%-10s %8d %9.0f %9.1f %10s\n",
				mode, p.RegularDataPct, p.OpsPerSec, p.ServerCPU*100, gain)
		}
	}
	return b.String()
}
