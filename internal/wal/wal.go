// Package wal is the write-ahead log of the asynchronous write-back
// pipeline: a logical redo journal of NFS WRITE intent, group-committed on
// a simulated log device before the client's reply is released.
//
// The log is record-per-write, not record-per-block: one Record carries the
// write's file identity, byte offset, the resolved device blocks and a copy
// of the wire payload. Group commit batches staged records and pays one
// simulated device latency per group (the classic "one fsync for N
// transactions" economy); a record's committed callback — the ack gate —
// fires only when its group is durable. The durable records live in a
// Journal, which outlives the Log: when the server dies the Log dies with it
// — staged and in-flight-commit records, whose acks never fired, are lost,
// which breaks no promise — and the restarted server opens a new Log on the
// same Journal and replays its records in sequence order.
//
// Truncation is prefix-only: a durable record retires when every one of its
// blocks has been written back AND no earlier record remains. The prefix
// rule is load-bearing — records can overlap (two writes touching one
// block), and replay applies the surviving suffix in sequence order, so
// retiring a newer record while an older overlapping one remains would let
// replay regress the block to the older contents.
package wal

import (
	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
)

// Record journals one acknowledged-to-be write.
type Record struct {
	netbuf.Recycled
	// Seq is the log sequence number (assigned by Append, 1-based).
	Seq uint64
	// Ino/Off identify the write in file terms (the FHO identity).
	Ino uint32
	Off uint64
	// Sum is the internet checksum of Data, verified at replay — a
	// mismatched (torn) record stops recovery at the last good prefix.
	Sum uint16
	// LBNs are the device blocks the write resolved to, in file order.
	LBNs []int64
	// Data is the redo payload: the write's bytes, block-aligned.
	Data []byte
}

// The group-commit protocol's fixed calibration.
const (
	// commitInterval bounds how long a staged record waits for company
	// (the timer arms on the first append of a group).
	commitInterval = 200 * sim.Microsecond
	// commitBytes forces an early commit when the staged payload reaches
	// this size.
	commitBytes = 256 << 10
	// commitLatency is the simulated log-device write time charged once
	// per group.
	commitLatency = 20 * sim.Microsecond
)

// Config is empty: group commit's calibration is the constants above. It
// stays because benchmarks/ncmark passes it to New.
type Config struct{}

// Clock posts the log's timers: the server's node, whose kill drops them
// with the rest of the process, or a bare engine.
type Clock interface {
	Schedule(d sim.Duration, fn func()) sim.EventID
	Cancel(id sim.EventID) bool
}

// Journal is the durable half of a log, which survives the Log that wrote
// it: the committed records replay must apply, durable[dhead:], in the
// sequence they were numbered in.
type Journal struct {
	nextSeq uint64
	durable []*Record
	dhead   int
}

// Log is one server process's write-ahead log over a Journal.
type Log struct {
	clock Clock
	wb    *metrics.Writeback
	j     *Journal

	// staged and inflight are the two groups, double-buffered: a commit
	// swaps them, so neither slice regrows once both have seen a full
	// group. One commit is in flight at a time.
	staged      []*Record
	stagedFns   []func()
	stagedBytes int
	inflight    []*Record
	inflightFns []func()
	// free holds the records Truncate retired, at most made: those NewRecord
	// built and Open inherited. One a caller built retires past the bound.
	free netbuf.FreeList[*Record]
	made int

	timerSet bool
	timer    sim.EventID
	// onTimer and onCommit are timerFire and committed, bound once.
	onTimer, onCommit func()
}

// New creates a log on a journal of its own; wb (may be nil) receives
// depth/commit accounting. The Config is ignored (see Config).
func New(clock Clock, _ Config, wb *metrics.Writeback) *Log { return Open(clock, &Journal{}, wb) }

// Open creates a log that appends to j, whose surviving records count in
// wb's depth (wb may be nil).
func Open(clock Clock, j *Journal, wb *metrics.Writeback) *Log {
	if wb == nil {
		wb = &metrics.Writeback{}
	}
	l := &Log{clock: clock, wb: wb, j: j, made: len(j.Records())}
	l.onTimer, l.onCommit = l.timerFire, l.committed
	for _, r := range l.j.Records() {
		wb.AddWALDepth(1, int64(len(r.Data)))
	}
	return l
}

// Depth returns journaled-but-unretired records (staged, committing and
// durable).
func (l *Log) Depth() int { return len(l.staged) + len(l.inflight) + len(l.j.Records()) }

// Records returns the committed records replay must apply, in sequence
// order.
func (j *Journal) Records() []*Record { return j.durable[j.dhead:] }

// NewRecord returns a record whose Data is n bytes long, for the caller to
// fill (every field, and all of Data: a recycled record's payload is stale)
// and Append. Journaled payloads only pass through the log — captured at
// the WRITE, dropped at truncation — so their memory cycles through here
// instead of being allocated per write.
func (l *Log) NewRecord(n int) *Record {
	r := l.free.Take()
	if r == nil {
		r = &Record{}
		l.made++
	}
	if cap(r.Data) < n {
		r.Data = make([]byte, n)
	}
	r.Data = r.Data[:n]
	return r
}

// Append stages a record and returns its sequence number; the log owns the
// record from here on, and Truncate recycles it. committed fires
// once the record's group commit lands — the caller releases the client
// ack there, and never if the node crashes first.
func (l *Log) Append(r *Record, committed func()) uint64 {
	l.j.nextSeq++
	r.Seq = l.j.nextSeq
	l.staged = append(l.staged, r)
	l.stagedFns = append(l.stagedFns, committed)
	l.stagedBytes += len(r.Data)
	l.wb.AddWALDepth(1, int64(len(r.Data)))
	if l.stagedBytes >= commitBytes {
		l.commitNow()
		return r.Seq
	}
	if !l.timerSet && len(l.inflight) == 0 {
		l.timerSet = true
		l.timer = l.clock.Schedule(commitInterval, l.onTimer)
	}
	return r.Seq
}

func (l *Log) timerFire() {
	l.timerSet = false
	l.commitNow()
}

// commitNow starts a group commit of everything staged. One commit is in
// flight at a time; appends arriving during it stage the next group.
func (l *Log) commitNow() {
	if len(l.inflight) > 0 || len(l.staged) == 0 {
		return
	}
	if l.timerSet {
		l.clock.Cancel(l.timer)
		l.timerSet = false
	}
	l.inflight, l.staged = l.staged, l.inflight[:0]
	l.inflightFns, l.stagedFns = l.stagedFns, l.inflightFns[:0]
	l.stagedBytes = 0
	l.clock.Schedule(commitLatency, l.onCommit)
}

// committed lands the in-flight group: its records turn durable and their
// callbacks fire in append order.
func (l *Log) committed() {
	batch, fns := l.inflight, l.inflightFns
	// No commit is in flight while the acks run: one that stages a full
	// group starts its commit at once, on buffers of its own.
	l.inflight, l.inflightFns = nil, nil
	l.j.durable = append(l.j.durable, batch...)
	l.wb.ObserveCommit(len(batch))
	for _, fn := range fns {
		if fn != nil {
			fn()
		}
	}
	if l.inflight == nil {
		l.inflight, l.inflightFns = batch[:0], fns[:0]
	}
	// Acks may have staged more writes synchronously; keep the pipe
	// moving without waiting out a fresh timer when a full group (or
	// a timer armed before this commit started) is already due.
	if l.stagedBytes >= commitBytes {
		l.commitNow()
	} else if len(l.staged) > 0 && !l.timerSet {
		l.timerSet = true
		l.timer = l.clock.Schedule(commitInterval, l.onTimer)
	}
}

// Truncate retires the longest durable prefix whose device blocks have all
// been written back (stillDirty reports false for every LBN). Returns the
// records retired. See the package comment for why only a prefix may go.
func (l *Log) Truncate(stillDirty func(lbn int64) bool) int {
	j, n := l.j, 0
scan:
	for _, r := range j.Records() {
		for _, lbn := range r.LBNs {
			if stillDirty(lbn) {
				break scan
			}
		}
		n++
	}
	if n == 0 {
		return 0
	}
	bytes := 0
	retired := j.durable[j.dhead : j.dhead+n]
	for _, r := range retired {
		bytes += len(r.Data)
		if len(l.free) < l.made {
			netbuf.Recycle(r.Data)
			*r = Record{Recycled: r.Recycled, Data: r.Data, LBNs: r.LBNs[:0]}
			l.free.Put(r)
		}
	}
	clear(retired)
	j.dhead += n
	// Reclaim the retired prefix once it outweighs what is still durable,
	// so appends reuse the array instead of growing a new one.
	if j.dhead > len(j.durable)/2 {
		k := copy(j.durable, j.durable[j.dhead:])
		clear(j.durable[k:])
		j.durable, j.dhead = j.durable[:k], 0
	}
	l.wb.WALTruncates += uint64(n)
	l.wb.AddWALDepth(int64(-n), int64(-bytes))
	return n
}
