package bench

import (
	"testing"
)

// TestWritebackBeatsSyncAtEqualDurability is the experiment's acceptance
// criterion: on the write-heavy SFS mix with acked-means-durable on both
// arms, the WAL + batched-flusher pipeline must out-run the synchronous
// apply+flush path, and its pipeline counters must show the machinery
// actually ran (group commits batching records, flushes batching blocks).
func TestWritebackBeatsSyncAtEqualDurability(t *testing.T) {
	pts := points[[]WritebackPoint](t, "writeback", quickOpts())
	byArm := map[string]WritebackPoint{}
	for _, p := range pts {
		byArm[p.Arm] = p
		if p.Errors != 0 {
			t.Fatalf("%s arm saw %d errors", p.Arm, p.Errors)
		}
	}
	sync, wal := byArm["sync"], byArm["wal"]
	if sync.OpsPerSec <= 0 || wal.OpsPerSec <= 0 {
		t.Fatalf("degenerate points: %+v", pts)
	}
	if wal.OpsPerSec <= sync.OpsPerSec {
		t.Fatalf("write-back pipeline did not beat the sync path: wal %.0f ops/s vs sync %.0f",
			wal.OpsPerSec, sync.OpsPerSec)
	}
	if wal.WALCommits == 0 || wal.FlushBatches == 0 {
		t.Fatalf("wal arm ran without the pipeline: %+v", wal)
	}
	if wal.MeanCommitRecs < 1 || wal.MeanBatchBlocks < 1 {
		t.Fatalf("pipeline never batched: %.2f recs/commit, %.2f blocks/batch", wal.MeanCommitRecs, wal.MeanBatchBlocks)
	}
	if sync.WALCommits != 0 {
		t.Fatalf("sync arm journaled: %+v", sync)
	}
	t.Logf("sync %.0f ops/s vs wal %.0f ops/s (%+.1f%%), %.1f recs/commit, %.1f blocks/batch, %d stalls",
		sync.OpsPerSec, wal.OpsPerSec, gainPct(wal.OpsPerSec, sync.OpsPerSec),
		wal.MeanCommitRecs, wal.MeanBatchBlocks, wal.Stalls)
}
