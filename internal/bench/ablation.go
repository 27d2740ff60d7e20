package bench

import (
	"fmt"
	"strings"

	"ncache/internal/extfs"
	"ncache/internal/passthru"
	"ncache/internal/simnet"
	"ncache/internal/workload"
)

// AblationResult is a single measured configuration of an ablation: its
// window, with NCache's gain over Original (checksum ablation) or the
// module's remaps and L2 hits over the run (remap ablation).
type AblationResult struct {
	window
	GainPct float64
	Remaps  uint64
	L2Hits  uint64
}

// CopyCostRow is one point of the copy-cost sweep.
type CopyCostRow struct {
	NsPerByte   float64
	OriginalMBs float64
	NCacheMBs   float64
	GainPct     float64
}

// CacheSplitRow is one point of the memory-split sweep: the web point,
// whose ParamKB is the FS cache's share in MB, and the NCache L2 hits over
// the run.
type CacheSplitRow struct {
	WebPoint
	L2Hits uint64
}

// AblationReport gathers the four ablations of the design decisions
// DESIGN.md calls out.
type AblationReport struct {
	// RemapOn/RemapOff: FHO→LBN remapping enabled and disabled.
	RemapOn, RemapOff AblationResult
	CopyCost          []CopyCostRow
	CacheSplit        []CacheSplitRow
	// OffloadOn/OffloadOff: NCache's gain with NIC checksum offload on (the
	// testbed default) and off.
	OffloadOn, OffloadOff AblationResult
}

// ablations runs all four.
func ablations(h *harness) (AblationReport, error) {
	var r AblationReport
	var err error
	if r.RemapOn, err = ablationRemap(h, false); err != nil {
		return r, fmt.Errorf("ablation remap: %w", err)
	}
	if r.RemapOff, err = ablationRemap(h, true); err != nil {
		return r, fmt.Errorf("ablation remap: %w", err)
	}
	if r.CopyCost, err = ablationCopyCost(h); err != nil {
		return r, fmt.Errorf("ablation copy cost: %w", err)
	}
	if r.CacheSplit, err = ablationCacheSplit(h); err != nil {
		return r, fmt.Errorf("ablation cache split: %w", err)
	}
	if r.OffloadOn, err = allHitGain(h, simnet.DefaultProfile(), true); err != nil {
		return r, fmt.Errorf("ablation checksum: %w", err)
	}
	if r.OffloadOff, err = allHitGain(h, simnet.DefaultProfile(), false); err != nil {
		return r, fmt.Errorf("ablation checksum: %w", err)
	}
	return r, nil
}

// ablationRemap measures a flush-heavy mixed workload with FHO→LBN remapping
// on or off. With remapping, data written by clients and flushed by the file
// system stays in the network-centric cache under its LBN and later reads
// hit locally; without it, those reads go back to storage.
func ablationRemap(h *harness, disable bool) (AblationResult, error) {
	// Sized, like every working set, for Options.Scale 4.
	fileBytes := uint64(32<<20) * 4 / uint64(h.opt.Scale)
	cl, err := h.build(passthru.ClusterConfig{
		Mode:          passthru.NCache,
		BlocksPerDisk: 32 * 1024,
		// A tiny FS cache (an eighth of the file): after the write phase
		// its blocks are evicted, so the read phase depends on the NCache
		// L2.
		FSCacheBlocks: int(fileBytes / extfs.BlockSize / 8),
		NCacheBytes:   256 << 20,
		DisableRemap:  disable,
	}, func(f *extfs.Formatter) error {
		_, err := f.AddFile("churn.dat", fileBytes, nil)
		return err
	})
	if err != nil {
		return AblationResult{}, err
	}
	fh, err := lookupFH(cl, 0, "churn.dat")
	if err != nil {
		return AblationResult{}, err
	}
	// Phase 1: overwrite the whole file, then sync — every block is
	// flushed, exercising remap (or dropping entries when disabled).
	wtr := workload.GenSequentialRead(fh, fileBytes, 32*1024)
	for i := range wtr.Ops {
		wtr.Ops[i].Kind = workload.OpWrite
	}
	if err := playTrace(cl, wtr, nfsClients(cl), h.opt.Concurrency); err != nil {
		return AblationResult{}, fmt.Errorf("write phase: %w", err)
	}
	if err := await(cl.Eng, func(p *pending) {
		cl.App.FS.Sync(p.expect("sync"))
	}); err != nil {
		return AblationResult{}, err
	}
	// Phase 2: random reads of the flushed data.
	w, err := h.measure(cl, &workload.NFSReadLoad{
		Clients: nfsClients(cl), FH: fh, FileSize: fileBytes,
		RequestSize: 8 * 1024, Pattern: workload.HotSet,
		Concurrency: h.opt.Concurrency,
	}, nil, 1, nil, nil)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{window: w, Remaps: cl.App.Module.Stats.Remaps, L2Hits: cl.App.Module.Stats.L2Hits}, nil
}

// ablationCopyCost sweeps the per-byte memcpy cost on the CPU-bound all-hit
// workload: NCache's advantage is exactly the copies it does not perform, so
// the gain must grow with the cost of a copy.
func ablationCopyCost(h *harness) ([]CopyCostRow, error) {
	var out []CopyCostRow
	for _, ns := range []float64{1.5, 3.0, 6.0} {
		cost := simnet.DefaultProfile()
		cost.CopyNsPerByte = ns
		orig, err := allHitPoint(h, passthru.Original, cost, true)
		if err != nil {
			return nil, err
		}
		nc, err := allHitPoint(h, passthru.NCache, cost, true)
		if err != nil {
			return nil, err
		}
		out = append(out, CopyCostRow{NsPerByte: ns, OriginalMBs: orig.ThroughputMBs, NCacheMBs: nc.ThroughputMBs,
			GainPct: gainPct(nc.ThroughputMBs, orig.ThroughputMBs)})
	}
	return out, nil
}

// allHitGain measures NCache's gain over Original on the 32 KB all-hit point
// with NIC checksum offload on or off (off: software checksums charge per
// payload byte in every configuration).
func allHitGain(h *harness, cost simnet.CostProfile, offload bool) (AblationResult, error) {
	orig, err := allHitPoint(h, passthru.Original, cost, offload)
	if err != nil {
		return AblationResult{}, err
	}
	nc, err := allHitPoint(h, passthru.NCache, cost, offload)
	return AblationResult{window: nc.window, GainPct: gainPct(nc.ThroughputMBs, orig.ThroughputMBs)}, err
}

// allHitPoint measures one 32 KB all-hit point with a custom cost profile,
// optionally with checksum offload disabled on every NIC.
func allHitPoint(h *harness, mode passthru.Mode, cost simnet.CostProfile, offload bool) (NFSPoint, error) {
	var tweak func(*passthru.Cluster)
	if !offload {
		tweak = func(cl *passthru.Cluster) {
			nodes := []*simnet.Node{cl.App.Node, cl.Storage.Node}
			for _, host := range cl.Clients {
				nodes = append(nodes, host.Node)
			}
			for _, n := range nodes {
				for _, nic := range n.NICs() {
					nic.ChecksumOffload = false
				}
			}
		}
	}
	cl, load, err := h.hitRig(passthru.ClusterConfig{Mode: mode, ServerNICs: 2, Cost: cost}, 32, tweak)
	if err != nil {
		return NFSPoint{}, err
	}
	return h.nfsPoint(cl, load)
}

// ablationCacheSplit fixes the server's memory budget and sweeps how much
// goes to the FS buffer cache versus NCache under a working set larger than
// either alone — quantifying the double-buffering control of §3.4.
func ablationCacheSplit(h *harness) ([]CacheSplitRow, error) {
	// A 96 MB budget against a 128 MB working set at Options.Scale 4.
	scaled := func(mb int) int64 { return int64(mb) << 20 * 4 / int64(h.opt.Scale) }
	var out []CacheSplitRow
	for _, fsMB := range []int{4, 16, 48} {
		cl, load, err := h.webRig(passthru.ClusterConfig{
			Mode:          passthru.NCache,
			FSCacheBlocks: int(scaled(fsMB) / extfs.BlockSize),
			NCacheBytes:   scaled(96 - fsMB),
		}, scaled(128))
		if err != nil {
			return nil, err
		}
		p, err := h.webPoint(cl, load, fsMB)
		if err != nil {
			return nil, err
		}
		out = append(out, CacheSplitRow{WebPoint: p, L2Hits: cl.App.Module.Stats.L2Hits})
	}
	return out, nil
}

// FormatAblations renders the four ablations.
func FormatAblations(r AblationReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: FHO→LBN remapping\n  on:  %8.0f ops/s (remaps=%d, L2 hits=%d)\n  off: %8.0f ops/s (remaps=%d, L2 hits=%d)\n\n",
		r.RemapOn.OpsPerSec, r.RemapOn.Remaps, r.RemapOn.L2Hits,
		r.RemapOff.OpsPerSec, r.RemapOff.Remaps, r.RemapOff.L2Hits)
	b.WriteString("Ablation: per-byte copy cost (all-hit, 32 KB, CPU-bound)\n")
	for _, c := range r.CopyCost {
		fmt.Fprintf(&b, "  %.1f ns/B: original %6.1f MB/s, ncache %6.1f MB/s, gain %+.1f%%\n",
			c.NsPerByte, c.OriginalMBs, c.NCacheMBs, c.GainPct)
	}
	b.WriteString("\nAblation: memory split between FS cache and NCache (fixed budget)\n")
	for _, c := range r.CacheSplit {
		fmt.Fprintf(&b, "  fs=%2d MB: %6.1f MB/s (fs hit %.1f%%, L2 hits %d)\n",
			c.ParamKB, c.ThroughputMBs, c.HitRatio*100, c.L2Hits)
	}
	fmt.Fprintf(&b, "\nAblation: NIC checksum offload\n  on:  ncache gain %+.1f%%\n  off: ncache gain %+.1f%% (inherited checksums spare the software walk)\n\n",
		r.OffloadOn.GainPct, r.OffloadOff.GainPct)
	return b.String()
}
