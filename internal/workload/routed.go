package workload

import (
	"ncache/internal/nfs"
	"ncache/internal/trace"
)

// RouteFn answers the NFS client that owns a file handle — the scale-out
// cluster's client-side routing (passthru.ScaleClient.Route matches, and
// calls done before it returns).
type RouteFn func(fh nfs.FH, done func(*nfs.Client, error))

// RoutedMixLoad is the scale-out closed-loop workload: many client
// processes, each picking files from a shared set, resolving the owning
// front-end server per operation through its host's placement replica, and
// issuing a read/write mix. Every (worker, step) draws from one seeded RNG
// stream per route, so runs replay bit-for-bit.
type RoutedMixLoad struct {
	// Routes is one routing function per client process.
	Routes []RouteFn
	// Files is the shared working set (handles span every server).
	Files []nfs.FH
	// FileSize bounds request offsets; RequestSize is the read size.
	FileSize    uint64
	RequestSize int
	// WriteSize is the write request size (0 = RequestSize); WritePct is
	// the write percentage of the mix.
	WriteSize int
	WritePct  int
	// Concurrency is the worker count per route (client process).
	Concurrency int
	Seed        uint64
	// Tracer, when set, opens a "read"/"write" span per request. Nil-safe.
	Tracer *trace.Tracer

	loop
}

var _ Load = (*RoutedMixLoad)(nil)

// SetTracer installs per-request span tracing.
func (l *RoutedMixLoad) SetTracer(t *trace.Tracer) { l.Tracer = t }

// Start implements Load. Routes never share a stream: each is a client
// process of its own, and the per-route seeds are what the committed
// fig-scaleout results were produced with.
func (l *RoutedMixLoad) Start() {
	if l.Concurrency <= 0 {
		l.Concurrency = 4
	}
	if l.WriteSize <= 0 {
		l.WriteSize = l.RequestSize
	}
	seed := func(route int) uint64 { return l.Seed + uint64(route)*0x9e3779b9 }
	l.start(len(l.Routes), l.Concurrency, nil, seed, l.next)
}

// RouteErrors counts operations that failed at the routing step.
func (l *RoutedMixLoad) RouteErrors() (n uint64) {
	for _, st := range l.streams {
		n += st.routeErrs
	}
	return n
}

// next draws one operation and resolves its route; routed issues it.
func (l *RoutedMixLoad) next(w *worker) {
	rng := w.st.rng
	w.fh = l.Files[rng.Intn(len(l.Files))]
	w.write = rng.Intn(100) < l.WritePct
	w.size = l.RequestSize
	if w.write {
		w.size = l.WriteSize
	}
	span := l.FileSize / uint64(w.size)
	if span == 0 {
		span = 1
	}
	// Align offsets to the request size so writes overwrite whole blocks
	// in place (no read-modify-write tail).
	w.off = uint64(rng.Int63n(int64(span))) * uint64(w.size)
	w.tracer = l.Tracer
	l.Routes[w.lane](w.fh, w.onRoute)
}

// routed runs the operation next drew on the client that owns its file.
func (w *worker) routed(c *nfs.Client, err error) {
	if err != nil {
		w.st.routeErrs++
		w.complete(0, err)
		return
	}
	if w.write {
		w.sp = w.tracer.Begin("write")
		c.Write(w.fh, w.off, junkChain(c, w.size), w.onWrite)
		return
	}
	w.sp = w.tracer.Begin("read")
	c.Read(w.fh, w.off, w.size, w.onRead)
}
