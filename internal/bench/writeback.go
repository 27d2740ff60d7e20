package bench

import (
	"fmt"
	"strings"

	"ncache/internal/passthru"
	"ncache/internal/workload"
)

// WritebackArms names the two durability arms fig-writeback compares: both
// acknowledge an NFS WRITE only once it is durable, but "sync" forces every
// write through apply+flush before the ack while "wal" group-commits the
// intent to the write-ahead log and lets the batching flusher move the data
// behind the ack.
var WritebackArms = []string{"sync", "wal"}

// writebackWriteMixPct is the write share of the regular-data operations in
// the fig-writeback SFS sweep — write-heavy, where the dirty-data path is
// the bottleneck (the SPECsfs default is ~17%).
const writebackWriteMixPct = 50

// WritebackPoint is one durability arm's measured point of the write-heavy
// SFS sweep. Pipeline counters are totals over the whole run (warm-up
// included — the WAL and flusher never reset mid-run); they are zero on the
// sync arm, which has no WAL.
type WritebackPoint struct {
	window
	Arm            string
	RegularDataPct int
	WriteMixPct    int
	// Write-ahead log activity: group commits, mean records per commit,
	// peak journal depth in records.
	WALCommits     uint64
	MeanCommitRecs float64
	WALPeakDepth   int64
	// Flusher activity: coalesced batches, mean blocks per batch, peak
	// dirty memory, and admission stalls at the high watermark with the
	// simulated time they spent parked, summed.
	FlushBatches    uint64
	MeanBatchBlocks float64
	DirtyPeakMB     float64
	Stalls          uint64
	StallMs         float64
}

// writeback measures the write-back pipeline against the synchronous
// dirty-data path at equal durability: the same write-heavy SFS load on the
// same NCache testbed, acked-means-durable on both arms.
func writeback(h *harness) ([]WritebackPoint, error) {
	var out []WritebackPoint
	for _, arm := range WritebackArms {
		p, err := writebackPoint(h, arm)
		if err != nil {
			return nil, fmt.Errorf("fig-writeback %s: %w", arm, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func writebackPoint(h *harness, arm string) (WritebackPoint, error) {
	cl, load, err := h.sfsRig(passthru.ClusterConfig{
		Mode:      passthru.NCache,
		Writeback: passthru.WritebackConfig{Enabled: true, WriteThrough: arm == "sync"},
	}, "wb", workload.SFSConfig{RegularDataPct: 75, WriteMixPct: writebackWriteMixPct})
	if err != nil {
		return WritebackPoint{}, err
	}
	w, err := h.measure(cl, load, nil, 1, nil, nil)
	if err != nil {
		return WritebackPoint{}, err
	}
	p := WritebackPoint{window: w, Arm: arm, RegularDataPct: 75, WriteMixPct: writebackWriteMixPct}
	if wb := cl.App.WB; wb != nil {
		p.WALCommits = wb.WALCommits
		p.MeanCommitRecs = wb.MeanCommitSize()
		p.WALPeakDepth = wb.WALPeakDepth
		p.FlushBatches = wb.FlushBatches
		p.MeanBatchBlocks = wb.MeanBatchBlocks()
		p.DirtyPeakMB = float64(wb.DirtyPeakBytes) / 1e6
		p.Stalls = wb.Stalls
		p.StallMs = float64(wb.StallNs) / 1e6
	}
	return p, nil
}

// FormatWritebackPoints renders the fig-writeback durability-vs-throughput
// table.
func FormatWritebackPoints(points []WritebackPoint) string {
	var base WritebackPoint
	for _, p := range points {
		if p.Arm == "sync" {
			base = p
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fig-writeback: write-heavy SFS (%d%% data ops, %d%% writes), acked == durable on both arms\n",
		75, writebackWriteMixPct)
	fmt.Fprintf(&b, "%-6s %9s %8s %9s %10s %8s %9s %8s %8s %9s %8s %9s %10s\n",
		"arm", "ops/s", "MB/s", "srvCPU%", "commits", "recs/ci", "walPeak", "batches", "blk/bat", "dirtyMB", "stalls", "stallMs", "vs sync")
	for _, p := range points {
		gain := ""
		if p.Arm != "sync" && base.OpsPerSec > 0 {
			gain = fmt.Sprintf("%+.1f%%", gainPct(p.OpsPerSec, base.OpsPerSec))
		}
		fmt.Fprintf(&b, "%-6s %9.0f %8.1f %9.1f %10d %8.1f %9d %8d %8.1f %9.2f %8d %9.0f %10s\n",
			p.Arm, p.OpsPerSec, p.ThroughputMBs, p.ServerCPU*100,
			p.WALCommits, p.MeanCommitRecs, p.WALPeakDepth,
			p.FlushBatches, p.MeanBatchBlocks, p.DirtyPeakMB, p.Stalls, p.StallMs, gain)
	}
	return b.String()
}
