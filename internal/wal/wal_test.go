package wal

import (
	"testing"

	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
)

func rig() (*sim.Engine, *metrics.Writeback, *Log) {
	eng := sim.NewEngine()
	wb := &metrics.Writeback{}
	l := New(eng, Config{}, wb)
	return eng, wb, l
}

// rec returns a record from l journaling one 4 KB write of payload to lbn.
func rec(l *Log, lbn int64, payload byte) *Record {
	r := l.NewRecord(4096)
	for i := range r.Data {
		r.Data[i] = payload
	}
	r.Ino, r.Off, r.Sum, r.LBNs = 2, uint64(lbn)*4096, netbuf.Sum(r.Data), []int64{lbn}
	return r
}

// TestGroupCommitTimer: records appended within one interval commit as one
// group, and the committed callbacks fire in append order, after (not at)
// the appends.
func TestGroupCommitTimer(t *testing.T) {
	eng, wb, l := rig()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		seq := l.Append(rec(l, int64(i), byte(i)), func() { order = append(order, i) })
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if len(order) != 0 {
		t.Fatal("committed before the group-commit timer fired")
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("commit order = %v", order)
	}
	if wb.WALCommits != 1 {
		t.Fatalf("commits = %d, want 1 group", wb.WALCommits)
	}
	if wb.CommitRecords != 3 {
		t.Fatalf("commit records = %d", wb.CommitRecords)
	}
	if got := len(l.j.Records()); got != 3 {
		t.Fatalf("durable = %d", got)
	}
}

// TestCommitBytesThreshold: a group reaching commitBytes commits without
// waiting out the interval, and is acknowledged one commitLatency — the log
// device's write — later, not before.
func TestCommitBytesThreshold(t *testing.T) {
	if commitLatency >= commitInterval {
		t.Fatal("the size threshold is indistinguishable from the timer: commitLatency >= commitInterval")
	}
	eng, _, l := rig()
	const records = commitBytes / 4096
	committed := 0
	for i := int64(0); i < records; i++ {
		l.Append(rec(l, i, 1), func() { committed++ })
	}
	eng.RunFor(commitLatency - 1)
	if committed != 0 {
		t.Fatalf("committed = %d before the log write could land, want 0", committed)
	}
	eng.RunFor(1)
	if committed != records {
		t.Fatalf("committed = %d before the %v timer could fire, want %d (size threshold)", committed, commitInterval, records)
	}
}

// TestTruncatePrefixOnly: an older record overlapping a clean block blocks
// truncation of everything after it — retiring the newer record while the
// older one remains would let replay regress the block.
func TestTruncatePrefixOnly(t *testing.T) {
	eng, wb, l := rig()
	a := l.NewRecord(8192)
	a.Ino, a.Off, a.LBNs = 2, 0, []int64{1, 2}
	b := rec(l, 2, 0)
	l.Append(a, nil)
	l.Append(b, nil)
	eng.Run()
	// LBN 1 still dirty: record a is pinned, so b must not retire either.
	dirty := map[int64]bool{1: true}
	if n := l.Truncate(func(lbn int64) bool { return dirty[lbn] }); n != 0 {
		t.Fatalf("truncated %d records past a dirty head", n)
	}
	if l.Depth() != 2 {
		t.Fatalf("depth = %d", l.Depth())
	}
	// Everything clean: both retire in order.
	if n := l.Truncate(func(int64) bool { return false }); n != 2 {
		t.Fatalf("truncated %d, want 2", n)
	}
	if l.Depth() != 0 || wb.WALDepth != 0 || wb.WALBytes != 0 {
		t.Fatalf("depth gauge not drained: %d/%d/%d", l.Depth(), wb.WALDepth, wb.WALBytes)
	}
	if wb.WALTruncates != 2 {
		t.Fatalf("truncates = %d", wb.WALTruncates)
	}
}

// TestPipelinedGroups: appends arriving during an in-flight commit form the
// next group — two commits, no lost records, acks strictly ordered.
func TestPipelinedGroups(t *testing.T) {
	eng, wb, l := rig()
	var order []uint64
	ack := func(seq uint64) func() { return func() { order = append(order, seq) } }
	s1 := l.Append(rec(l, 0, 1), ack(1))
	// Let the first group's commit start, then append into its shadow.
	eng.RunFor(commitInterval + commitLatency/2)
	s2 := l.Append(rec(l, 1, 2), ack(2))
	eng.Run()
	if s1 != 1 || s2 != 2 {
		t.Fatalf("seqs = %d,%d", s1, s2)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("ack order = %v", order)
	}
	if wb.WALCommits != 2 {
		t.Fatalf("commits = %d, want 2 pipelined groups", wb.WALCommits)
	}
}

// TestNewRecordCyclesThroughTruncate: a record NewRecord handed out comes
// back from NewRecord once Truncate has retired it — struct and payload.
func TestNewRecordCyclesThroughTruncate(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, _, l := rig()
	pooled := l.NewRecord(8192)
	pooled.Ino, pooled.LBNs = 2, []int64{1, 2}
	payload := &pooled.Data[0]
	l.Append(pooled, nil)
	eng.Run()
	if got := l.Truncate(func(int64) bool { return false }); got != 1 {
		t.Fatalf("truncated %d records, want 1", got)
	}
	again := l.NewRecord(4096)
	if again != pooled || &again.Data[0] != payload || len(again.Data) != 4096 {
		t.Fatal("NewRecord did not reuse the retired record and its payload")
	}
	if again.Seq != 0 || again.Ino != 0 || len(again.LBNs) != 0 {
		t.Fatalf("recycled record carries its previous life: seq %d ino %d lbns %v", again.Seq, again.Ino, again.LBNs)
	}
	if bigger := l.NewRecord(16384); len(bigger.Data) != 16384 {
		t.Fatalf("NewRecord(16384) returned %d bytes", len(bigger.Data))
	}
}

// TestFreeListHoldsWhatNewRecordMade: the free list keeps no more records
// than NewRecord made, so a caller that appends records it built itself and
// never takes one back (a timing loop) does not grow it without bound.
func TestFreeListHoldsWhatNewRecordMade(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, _, l := rig()
	l.Append(rec(l, 0, 1), nil)
	for i := int64(1); i <= 100; i++ {
		l.Append(&Record{LBNs: []int64{i}, Data: make([]byte, 4096)}, nil)
	}
	eng.Run()
	if n := l.Truncate(func(int64) bool { return false }); n != 101 {
		t.Fatalf("truncated %d records, want 101", n)
	}
	if len(l.free) != 1 {
		t.Fatalf("free list holds %d records after one NewRecord, want 1", len(l.free))
	}
}

// TestDebugModePoisonsRetiredPayloads: under netbuf debug mode a retired
// record is poisoned and abandoned, so a reader that kept it past
// truncation sees poison instead of a later write's payload.
func TestDebugModePoisonsRetiredPayloads(t *testing.T) {
	was := netbuf.DebugEnabled()
	netbuf.SetDebug(true)
	defer netbuf.SetDebug(was)
	eng, _, l := rig()
	r := l.NewRecord(4096)
	r.LBNs = []int64{1}
	r.Data[0] = 7
	l.Append(r, nil)
	eng.Run()
	l.Truncate(func(int64) bool { return false })
	if len(l.free) != 0 || r.Data[0] == 7 || r.Data[0] != r.Data[4095] {
		t.Fatalf("retired payload not poisoned: free %d, data %#x..%#x", len(l.free), r.Data[0], r.Data[4095])
	}
}

// TestLogCycleZeroAllocs: once primed, a journaled write's whole life in the
// log — NewRecord, Append, the group commit's timer and device write, the
// ack, Truncate — allocates nothing: the staging and in-flight groups swap
// buffers, the timer and commit completions are bound once, the durable
// queue reuses its array and the record comes back through the free list.
func TestLogCycleZeroAllocs(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	eng, _, l := rig()
	acks := 0
	ack := func() { acks++ }
	clean := func(int64) bool { return false }
	cycle := func() {
		for i := int64(0); i < 4; i++ {
			r := l.NewRecord(4096)
			r.Ino, r.Off, r.LBNs = 2, uint64(i)*4096, append(r.LBNs[:0], i)
			l.Append(r, ack)
		}
		eng.Run()
		if n := l.Truncate(clean); n != 4 {
			t.Fatalf("truncated %d records, want 4", n)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("append, commit and truncate of a 4-record group allocates %.1f objects, want 0", avg)
	}
	if acks != 4*(4+101) {
		t.Fatalf("acks = %d, want %d", acks, 4*(4+101))
	}
}
