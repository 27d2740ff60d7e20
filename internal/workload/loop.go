package workload

import (
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
)

// stream is everything one issuing stream owns: its random source, its
// cursor and its completion counters. A generator draws from and counts into
// the stream it is handed and nothing else.
type stream struct {
	rng *sim.RNG
	// seq is the generator's cursor: the next sequential offset, trace
	// record or scratch-file number.
	seq              uint64
	ops, bytes, errs uint64
	// routeErrs counts RoutedMixLoad operations that failed at the routing
	// step; inFlight and drained are TracePlayer's end-of-trace bookkeeping.
	routeErrs uint64
	inFlight  int
	drained   bool
}

// nextFn draws the next operation for a lane from its stream and issues it,
// calling done exactly once with the bytes moved — or not at all to retire
// the worker (a non-looping trace that ran out).
type nextFn func(lane int, st *stream, done func(n int, err error))

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

// spawn runs one worker: issue, account the completion, issue again. The
// worker's completion closure is built once, so the core allocates nothing
// per operation.
func (l *loop) spawn(lane int, next nextFn) {
	st := l.lanes[lane]
	var done func(int, error)
	issue := func() {
		if !l.stopped {
			next(lane, st, done)
		}
	}
	done = func(n int, err error) {
		if err != nil {
			st.errs++
		} else {
			st.ops++
			st.bytes += uint64(n)
		}
		issue()
	}
	issue()
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

// junkChain draws an n-byte zeroed chain from the client host's registered
// block pool: synthetic write bodies are identity-free junk (§5.1), so the
// testbed's clients are copy-free — the payload is born in pooled network
// buffers and handed straight to the zero-copy WRITE path, never staged
// through a byte slice. The pool recycles the buffers when the RPC layer
// releases them, keeping the steady-state client allocation-free.
func junkChain(c *nfs.Client, n int) *netbuf.Chain {
	ch, err := c.Node().BlkPool.GetZeroChain(n)
	if err != nil {
		// Unreachable on the unbounded default pools; allocate rather
		// than drop the op if a test installs a bounded pool.
		b := netbuf.New(0, n)
		_ = b.Put(n)
		ch = netbuf.ChainOf(b)
	}
	ch.SetOwner("workload.write")
	return ch
}
