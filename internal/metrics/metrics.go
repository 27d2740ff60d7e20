// Package metrics collects the data-path counters the paper's evaluation is
// built on: physical copy operations and bytes (the quantity NCache
// eliminates), logical copies (key movements), packet counts, and
// per-request accounting used to regenerate Table 2.
package metrics

import "fmt"

// Copies tallies data movement on one node's data path.
type Copies struct {
	// PhysicalOps counts payload memcpy operations (one per block moved
	// between layers, the unit Table 2 reports).
	PhysicalOps uint64
	// PhysicalBytes counts payload bytes physically copied.
	PhysicalBytes uint64
	// LogicalOps counts key-only ("logical") copies.
	LogicalOps uint64
	// ChecksumBytes counts payload bytes walked for software checksumming.
	ChecksumBytes uint64
}

// AddPhysical records one physical copy of n bytes.
func (c *Copies) AddPhysical(n int) {
	c.PhysicalOps++
	c.PhysicalBytes += uint64(n)
}

// AddLogical records one logical (key) copy.
func (c *Copies) AddLogical() { c.LogicalOps++ }

// Sub returns the difference c - o (counters since a snapshot o).
func (c Copies) Sub(o Copies) Copies {
	return Copies{
		PhysicalOps:   c.PhysicalOps - o.PhysicalOps,
		PhysicalBytes: c.PhysicalBytes - o.PhysicalBytes,
		LogicalOps:    c.LogicalOps - o.LogicalOps,
		ChecksumBytes: c.ChecksumBytes - o.ChecksumBytes,
	}
}

// String summarizes the counters.
func (c Copies) String() string {
	return fmt.Sprintf("copies{phys=%d (%d B) logical=%d}", c.PhysicalOps, c.PhysicalBytes, c.LogicalOps)
}

// Net tallies wire-level traffic on one node.
type Net struct {
	PacketsTx uint64
	PacketsRx uint64
	BytesTx   uint64
	BytesRx   uint64
	// FaultDropTx counts frames discarded at transmit by injected faults.
	FaultDropTx uint64
	// FaultCorruptRx counts frames discarded on delivery because an
	// injected fault spoiled them in flight.
	FaultCorruptRx uint64
	// FaultDupTx counts extra frame copies injected at transmit.
	FaultDupTx uint64
}

// Cache tallies hit/miss behaviour of a cache layer.
type Cache struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRatio returns hits/(hits+misses), or 0 with no lookups.
func (c Cache) HitRatio() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Writeback tallies the asynchronous dirty-data pipeline: bounded dirty
// memory in the buffer cache, the write-ahead log's depth, and the group
// commits and admission stalls that couple them. One instance is shared by
// a server's buffer-cache flusher and its WAL.
type Writeback struct {
	// DirtyBytes gauges dirty buffer-cache memory; DirtyPeakBytes is its
	// high-water mark over the run.
	DirtyBytes     int64
	DirtyPeakBytes int64
	// WALDepth gauges journaled-but-unretired records (staged + durable);
	// WALPeakDepth is its high-water mark, WALBytes the payload they hold.
	WALDepth     int64
	WALPeakDepth int64
	WALBytes     int64
	// WALCommits/WALTruncates count log operations; CommitRecords totals
	// the records made durable, so CommitRecords/WALCommits is the mean
	// group-commit size.
	WALCommits    uint64
	WALTruncates  uint64
	CommitRecords uint64
	// FlushBatches/FlushBlocks count coalesced write-back I/Os and the
	// blocks they carried (FlushBlocks/FlushBatches = mean batch size).
	FlushBatches uint64
	FlushBlocks  uint64
	// Stalls counts admissions parked at the dirty high watermark;
	// StallNs sums the simulated time they spent queued.
	Stalls  uint64
	StallNs int64
}

// AddDirty moves the dirty-bytes gauge by delta, tracking the peak.
func (w *Writeback) AddDirty(delta int64) {
	w.DirtyBytes += delta
	if w.DirtyBytes > w.DirtyPeakBytes {
		w.DirtyPeakBytes = w.DirtyBytes
	}
}

// AddWALDepth moves the WAL record/byte gauges, tracking the peak depth.
func (w *Writeback) AddWALDepth(records, bytes int64) {
	w.WALDepth += records
	w.WALBytes += bytes
	if w.WALDepth > w.WALPeakDepth {
		w.WALPeakDepth = w.WALDepth
	}
}

// ObserveCommit records one group commit of n records.
func (w *Writeback) ObserveCommit(n int) {
	w.WALCommits++
	w.CommitRecords += uint64(n)
}

// MeanCommitSize returns the average records per group commit.
func (w *Writeback) MeanCommitSize() float64 {
	if w.WALCommits == 0 {
		return 0
	}
	return float64(w.CommitRecords) / float64(w.WALCommits)
}

// MeanBatchBlocks returns the average blocks per coalesced write-back I/O.
func (w *Writeback) MeanBatchBlocks() float64 {
	if w.FlushBatches == 0 {
		return 0
	}
	return float64(w.FlushBlocks) / float64(w.FlushBatches)
}

// Requests tallies application-level operations (NFS ops, HTTP requests).
type Requests struct {
	Ops      uint64
	ReadOps  uint64
	WriteOps uint64
	MetaOps  uint64
}
