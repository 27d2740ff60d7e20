package bench

import (
	"fmt"
	"strings"

	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// OverheadRow is one component of NCache's per-request CPU overhead — the
// breakdown the paper defers to its technical report (TR-177 footnote,
// §5.5): where the gap between NFS-NCache and NFS-baseline goes.
type OverheadRow struct {
	Component string
	// NsPerOp is the estimated CPU time per NFS request.
	NsPerOp float64
	// SharePct is the share of the total measured NCache/baseline gap.
	SharePct float64
}

// OverheadReport is the full breakdown plus the measured envelope.
type OverheadReport struct {
	Rows []OverheadRow
	// NCacheCPUPerOpNs / BaselineCPUPerOpNs are the measured per-request
	// CPU times of the two configurations.
	NCacheCPUPerOpNs   float64
	BaselineCPUPerOpNs float64
	// AccountedPct is how much of the measured gap the component model
	// explains (a sanity check on the accounting).
	AccountedPct float64
}

// overhead measures the all-hit 32 KB point in NCache and Baseline modes,
// then attributes the CPU-per-request gap to NCache's mechanism components
// using the module's activity counters and the cost profile's constants.
func overhead(h *harness) (OverheadReport, error) {
	// counters snapshots the mechanism activity the model charges for.
	type counters struct{ subst, substBufs, captures, l2, logical uint64 }
	type sample struct {
		cpuPerOp float64
		lookups  float64 // hash ops per request
		substBuf float64
		mgmt     float64 // captures per request
		logical  float64
	}
	measure := func(mode passthru.Mode) (sample, error) {
		cl, load, err := h.hitRig(passthru.ClusterConfig{Mode: mode, ServerNICs: 2}, 32, nil)
		if err != nil {
			return sample{}, err
		}
		snap := func() (c counters) {
			if m := cl.App.Module; m != nil {
				c = counters{m.Stats.Substitutions, m.Stats.SubstBufs, m.Stats.Captures, m.Stats.L2Hits, 0}
			}
			c.logical = cl.App.Node.Copies.LogicalOps
			return c
		}
		var before, after counters
		var busy sim.Duration
		w, err := h.measure(cl, load, nil, 1,
			func() { before = snap() },
			func(int) { busy, after = cl.App.Node.CPU.Busy(), snap() })
		if err != nil {
			return sample{}, err
		}
		if w.Ops == 0 {
			return sample{}, fmt.Errorf("overhead: no ops measured")
		}
		ops := float64(w.Ops)
		return sample{
			cpuPerOp: float64(busy) / ops,
			lookups:  float64(after.subst-before.subst+after.l2-before.l2) / ops,
			substBuf: float64(after.substBufs-before.substBufs) / ops,
			mgmt:     float64(after.captures-before.captures) / ops,
			logical:  float64(after.logical-before.logical) / ops,
		}, nil
	}

	nc, err := measure(passthru.NCache)
	if err != nil {
		return OverheadReport{}, err
	}
	base, err := measure(passthru.Baseline)
	if err != nil {
		return OverheadReport{}, err
	}

	cost := simnet.DefaultProfile()
	rows := []OverheadRow{
		{Component: "hash lookups (LBN/FHO)", NsPerOp: nc.lookups * float64(cost.NCacheLookupNs)},
		{Component: "packet substitution", NsPerOp: nc.substBuf * float64(cost.NCacheSubstNs)},
		{Component: "cache management (LRU/insert)", NsPerOp: nc.mgmt * float64(cost.NCacheMgmtNs)},
		{Component: "logical copies (keys)", NsPerOp: nc.logical * float64(cost.LogicalCopyNs)},
	}
	gap := nc.cpuPerOp - base.cpuPerOp
	var accounted float64
	for i := range rows {
		if gap > 0 {
			rows[i].SharePct = rows[i].NsPerOp / gap * 100
		}
		accounted += rows[i].NsPerOp
	}
	rep := OverheadReport{
		Rows:               rows,
		NCacheCPUPerOpNs:   nc.cpuPerOp,
		BaselineCPUPerOpNs: base.cpuPerOp,
	}
	if gap > 0 {
		rep.AccountedPct = accounted / gap * 100
	}
	return rep, nil
}

// FormatOverhead renders the breakdown.
func FormatOverhead(r OverheadReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "NCache per-request overhead breakdown (all-hit, 32 KB — the §5.5/TR-177 gap)\n")
	fmt.Fprintf(&b, "measured CPU/op: ncache %.1f µs, baseline %.1f µs, gap %.1f µs\n",
		r.NCacheCPUPerOpNs/1000, r.BaselineCPUPerOpNs/1000,
		(r.NCacheCPUPerOpNs-r.BaselineCPUPerOpNs)/1000)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-32s %8.2f µs/op  %5.1f%% of gap\n",
			row.Component, row.NsPerOp/1000, row.SharePct)
	}
	fmt.Fprintf(&b, "  components account for %.1f%% of the measured gap\n", r.AccountedPct)
	return b.String()
}
