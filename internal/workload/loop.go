package workload

import (
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// Load is a closed-loop workload.
type Load interface {
	// Start launches the workers; they re-issue until Stop.
	Start()
	// Stop prevents further issues (in-flight operations drain).
	Stop()
	// Counters reports cumulative ops/bytes/errors completed so far.
	Counters() (ops, bytes, errs uint64)
	// Outstanding reports the operations issued that have neither completed
	// nor failed.
	Outstanding() uint64
}

// stream is everything one issuing stream owns: its random source, its
// cursor and its completion counters. A generator draws from and counts into
// the stream it is handed and nothing else.
type stream struct {
	rng *sim.RNG
	// seq is the generator's cursor: the next sequential offset, trace
	// record or scratch-file number.
	seq uint64
	// issued counts the operations issued; each ends in ops or errs.
	issued, ops, bytes, errs uint64
	// routeErrs counts RoutedMixLoad operations that failed at the routing
	// step; drained is TracePlayer's end-of-trace bookkeeping.
	routeErrs uint64
	drained   bool
}

// nextFn draws the next operation for a worker's lane from its stream and
// issues it, calling w.done exactly once with the bytes moved — or calls
// w.retire instead when the lane has nothing more to issue (a non-looping
// trace that ran out, a dead connection).
type nextFn func(w *worker)

// worker is one closed-loop issuer. It has exactly one operation outstanding,
// so it is also that operation's record: what the reply continuations need
// sits here, and the continuations themselves are bound once, in spawn — the
// generators build no closure per operation, and what a run allocates is the
// system's.
type worker struct {
	l    *loop
	lane int
	st   *stream
	next nextFn

	// The operation outstanding: its client and span, and what a
	// continuation that issues a second call needs of its arguments.
	c      *nfs.Client
	tracer *trace.Tracer
	sp     *trace.Span
	fh     nfs.FH
	off    uint64
	size   int
	write  bool
	name   string

	// done accounts a completion and issues the next operation; the rest
	// adapt an NFS reply to it.
	done      func(n int, err error)
	onRead    func(*netbuf.Chain, nfs.Attr, error)
	onWrite   func(int, nfs.Attr, error)
	onAttr    func(nfs.Attr, error)
	onNames   func([]string, error)
	onStatus  func(error)
	onProbe   func(nfs.FH, nfs.Attr, error)
	onCreated func(nfs.FH, nfs.Attr, error)
	onRoute   func(*nfs.Client, error)
}

// complete accounts one operation and issues the next.
func (w *worker) complete(n int, err error) {
	if err != nil {
		w.st.errs++
	} else {
		w.st.ops++
		w.st.bytes += uint64(n)
	}
	w.issue()
}

func (w *worker) issue() {
	if !w.l.stopped {
		w.st.issued++
		w.next(w)
	}
}

// retire ends the worker: the issue the loop counted was not made.
func (w *worker) retire() { w.st.issued-- }

// endSpan closes the operation's span, if it opened one.
func (w *worker) endSpan() {
	w.sp.Finish()
	w.sp = nil
}

func (w *worker) readDone(data *netbuf.Chain, _ nfs.Attr, err error) {
	w.endSpan()
	w.complete(consume(data), err)
}

func (w *worker) writeDone(n int, _ nfs.Attr, err error) {
	w.endSpan()
	w.complete(n, err)
}

func (w *worker) attrDone(_ nfs.Attr, err error)  { w.complete(0, err) }
func (w *worker) namesDone(_ []string, err error) { w.complete(0, err) }
func (w *worker) statusDone(err error)            { w.complete(0, err) }

// loop is the closed-loop core under every generator: each lane (a client, a
// connection, a routed client process) keeps a fixed number of operations
// outstanding, re-issuing on completion until Stop.
//
// The stream rule lives here and nowhere else: a generator that hands start a
// shared stream has all its lanes draw from it in global completion order;
// one that hands it none gets a stream per lane, seeded from the lane index.
type loop struct {
	lanes   []*stream // lane → its stream; every entry aliases streams[0] when shared
	streams []*stream
	stopped bool
}

// start launches perLane workers on each of n lanes. Every lane uses shared
// when it is set; otherwise lane i gets its own stream with an RNG seeded
// seed(i).
func (l *loop) start(n, perLane int, shared *stream, seed func(lane int) uint64, next nextFn) {
	l.lanes = make([]*stream, n)
	if shared != nil {
		l.streams = []*stream{shared}
		for i := range l.lanes {
			l.lanes[i] = shared
		}
	} else {
		l.streams = make([]*stream, n)
		for i := range l.lanes {
			st := &stream{rng: sim.NewRNG(seed(i))}
			l.lanes[i], l.streams[i] = st, st
		}
	}
	for lane := range l.lanes {
		for w := 0; w < perLane; w++ {
			l.spawn(lane, next)
		}
	}
}

// spawn starts one worker: issue, account the completion, issue again.
func (l *loop) spawn(lane int, next nextFn) {
	w := &worker{l: l, lane: lane, st: l.lanes[lane], next: next}
	w.done = w.complete
	w.onRead, w.onWrite, w.onAttr, w.onNames, w.onStatus = w.readDone, w.writeDone, w.attrDone, w.namesDone, w.statusDone
	w.onProbe, w.onCreated, w.onRoute = w.probeDone, w.created, w.routed
	w.issue()
}

// Stop implements Load.
func (l *loop) Stop() { l.stopped = true }

// Counters implements Load.
func (l *loop) Counters() (ops, bytes, errs uint64) {
	for _, st := range l.streams {
		ops += st.ops
		bytes += st.bytes
		errs += st.errs
	}
	return ops, bytes, errs
}

// Outstanding implements Load.
func (l *loop) Outstanding() (n uint64) {
	for _, st := range l.streams {
		n += st.outstanding()
	}
	return n
}

// outstanding is the stream's operations issued but not yet answered.
func (st *stream) outstanding() uint64 { return st.issued - st.ops - st.errs }

// consume releases a READ reply and returns its length (nil-safe: failed
// reads carry no data).
func consume(data *netbuf.Chain) int {
	if data == nil {
		return 0
	}
	n := data.Len()
	data.Release()
	return n
}

// junkChain draws an n-byte zeroed chain from the client host's block
// pool: synthetic write bodies are identity-free junk (§5.1), so the
// testbed's clients are copy-free — the payload is born in pooled network
// buffers and handed straight to the zero-copy WRITE path, never staged
// through a byte slice. The pool recycles the buffers when the RPC layer
// releases them, keeping the steady-state client allocation-free.
func junkChain(c *nfs.Client, n int) *netbuf.Chain {
	ch, _ := c.Node().BlkPool.GetZeroChain(n) // pools are unbounded: the error is always nil
	ch.SetOwner("workload.write")
	return ch
}
