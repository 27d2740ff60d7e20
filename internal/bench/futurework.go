package bench

import (
	"fmt"
	"strings"

	"ncache/internal/passthru"
)

// WireFormatPoint is one point of the §6 future-work experiment.
type WireFormatPoint struct {
	window
	Mode       passthru.Mode
	WireFormat bool
}

// futurework evaluates the paper's §6 proposal — storing disk-resident data
// in a network-ready format so the *storage server* also avoids its copies —
// on the all-miss workload of Figure 4 at 32 KB, where the storage CPU is
// the bottleneck for the zero-copy application-server configurations.
// Wire-format storage should lift exactly that ceiling.
func futurework(h *harness) ([]WireFormatPoint, error) {
	var out []WireFormatPoint
	for _, mode := range []passthru.Mode{passthru.Original, passthru.NCache} {
		for _, wf := range []bool{false, true} {
			cl, load, err := h.missRig(passthru.ClusterConfig{Mode: mode}, 96*1024, 32,
				func(cl *passthru.Cluster) { cl.Storage.Target.WireFormat = wf })
			if err != nil {
				return nil, fmt.Errorf("futurework %s wf=%v: %w", mode, wf, err)
			}
			w, err := h.measure(cl, load, nil, 1, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("futurework %s wf=%v: %w", mode, wf, err)
			}
			out = append(out, WireFormatPoint{window: w, Mode: mode, WireFormat: wf})
		}
	}
	return out, nil
}

// FormatWireFormatPoints renders the experiment.
func FormatWireFormatPoints(points []WireFormatPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Future work (§6): network-ready disk-resident format at the storage target\n")
	fmt.Fprintf(&b, "(all-miss, 32 KB — the configuration where the storage CPU is the ceiling)\n")
	fmt.Fprintf(&b, "%-10s %-12s %12s %9s %9s\n", "config", "storage", "MB/s", "srvCPU%", "stoCPU%")
	base := map[passthru.Mode]float64{}
	for _, p := range points {
		name := "classic"
		if p.WireFormat {
			name = "wire-format"
		}
		note := ""
		if !p.WireFormat {
			base[p.Mode] = p.ThroughputMBs
		} else if b0 := base[p.Mode]; b0 > 0 {
			note = fmt.Sprintf("  (%+.1f%%)", (p.ThroughputMBs/b0-1)*100)
		}
		fmt.Fprintf(&b, "%-10s %-12s %12.1f %9.1f %9.1f%s\n",
			p.Mode, name, p.ThroughputMBs, p.ServerCPU*100, p.StorageCPU*100, note)
	}
	return b.String()
}
