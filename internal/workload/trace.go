package workload

import (
	"ncache/internal/nfs"
)

// OpKind classifies a trace record.
type OpKind int

// Trace operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
)

// TraceOp is one record of a synthetic NFS trace, the format our Active
// Trace Player analogue replays (the paper generates its micro-benchmarks
// "by means of synthetic traces and an Active Trace Player" [20]).
type TraceOp struct {
	Kind OpKind
	Off  uint64
	Len  int
}

// Trace is a replayable operation sequence against one file.
type Trace struct {
	FH  nfs.FH
	Ops []TraceOp
}

// GenSequentialRead builds the all-miss trace: a single streaming pass.
func GenSequentialRead(fh nfs.FH, fileSize uint64, reqSize int) Trace {
	t := Trace{FH: fh}
	for off := uint64(0); off+uint64(reqSize) <= fileSize; off += uint64(reqSize) {
		t.Ops = append(t.Ops, TraceOp{Kind: OpRead, Off: off, Len: reqSize})
	}
	return t
}

// TracePlayer replays a trace once, closed-loop with the given concurrency.
// Every client's workers draw the next record from one shared cursor.
type TracePlayer struct {
	Clients     []*nfs.Client
	Trace       Trace
	Concurrency int
	// Done fires once when the replay exhausts the trace and all workers
	// have drained.
	Done func()

	loop
}

var _ Load = (*TracePlayer)(nil)

// Start implements Load.
func (p *TracePlayer) Start() {
	p.start(len(p.Clients), p.Concurrency, &stream{}, nil, p.next)
}

// next replays the trace's next record, or retires the worker at the end of
// the trace.
func (p *TracePlayer) next(w *worker) {
	st, ops := w.st, p.Trace.Ops
	idx := int(st.seq)
	if idx >= len(ops) {
		w.retire()
		if st.outstanding() == 0 && !st.drained {
			st.drained = true
			if p.Done != nil {
				p.Done()
			}
		}
		return
	}
	st.seq++
	op, c := ops[idx], p.Clients[w.lane]
	switch op.Kind {
	case OpWrite:
		c.Write(p.Trace.FH, op.Off, junkChain(c, op.Len), w.onWrite)
	default:
		c.Read(p.Trace.FH, op.Off, op.Len, w.onRead)
	}
}
