// Package storage is the transport-neutral lower tier of the pass-through
// server: everything above it (the buffer-cache flusher, WAL replay, the
// sync write-through arm) talks to a Volume, and everything below it (each
// target's mirror over its one or more iSCSI initiators, a sharded fan-out)
// is an implementation detail. Volumes here are plain transports: the
// NCache/Baseline interception is one decorator in internal/passthru, above
// a target's volume, so it runs once per logical I/O whatever the arms below
// retry or fan out.
package storage

import (
	"ncache/internal/blockdev"
	"ncache/internal/netbuf"
)

// Volume is the lower storage tier seen by the buffer cache and WAL replay.
// Payloads travel as netbuf chains (zero-copy: implementations clone, never
// flatten); meta marks file-system metadata, which the interception above
// a volume leaves alone and the volumes themselves only pass down.
// All completion callbacks run as events on the owning node's engine.
type Volume interface {
	// BlockSize returns the device block size in bytes (valid once the
	// underlying initiators are connected).
	BlockSize() int
	// ReadAt fetches blocks starting at lbn. The callback owns the chain.
	ReadAt(lbn int64, blocks int, meta bool, done func(*netbuf.Chain, error))
	// WriteAt stores a block-aligned payload at lbn, taking ownership of
	// the chain.
	WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error))
	// Stats returns a per-arm health/traffic snapshot, one entry per
	// backend arm in a fixed order.
	Stats() []ArmStats
}

// ArmState is the circuit-breaker state of one backend arm.
type ArmState int

const (
	// ArmClosed: healthy, serving reads and writes.
	ArmClosed ArmState = iota
	// ArmOpen: ejected after the error threshold tripped; no writes,
	// and reads only when no closed or resyncing arm is current for
	// them, besides the scheduled half-open probe.
	ArmOpen
	// ArmHalfOpen: a probe is in flight deciding open vs resync.
	ArmHalfOpen
	// ArmResync: probe succeeded; catch-up copy of the dirty-region log is
	// draining. Writes flow through; reads still avoid the arm.
	ArmResync
)

// String names the state for stats tables.
func (s ArmState) String() string {
	switch s {
	case ArmClosed:
		return "closed"
	case ArmOpen:
		return "open"
	case ArmHalfOpen:
		return "half-open"
	case ArmResync:
		return "resync"
	}
	return "?"
}

// ArmStats is one arm's health and traffic snapshot.
type ArmStats struct {
	Name   string
	State  ArmState
	Reads  uint64
	Writes uint64
	// Errors counts failed commands (after initiator-level retries).
	Errors uint64
	// Ejections counts closed->open transitions.
	Ejections uint64
	// Probes counts half-open probe attempts.
	Probes uint64
	// Resyncs counts completed resync->closed recoveries.
	Resyncs uint64
	// ResyncBlocks counts blocks copied by catch-up resync.
	ResyncBlocks uint64
	// DirtyBlocks is the current dirty-region log depth.
	DirtyBlocks int
}

// Initiator is the slice of iscsi.Initiator a volume arm needs; keeping it
// structural (rather than importing iscsi) lets the iscsi package's own
// tests use storage arrays without an import cycle.
type Initiator interface {
	Geometry() blockdev.Geometry
	Read(lba int64, blocks int, meta bool, done func(*netbuf.Chain, error))
	Write(lba int64, data *netbuf.Chain, meta bool, done func(error))
}
