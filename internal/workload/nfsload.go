package workload

import (
	"ncache/internal/nfs"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// AccessPattern selects how read offsets advance.
type AccessPattern int

// Patterns for the micro-benchmarks (§5.3).
const (
	// Sequential streams through the file and wraps: with a file much
	// larger than the server caches this is the all-miss workload.
	Sequential AccessPattern = iota + 1
	// HotSet cycles uniformly through a small region: after warm-up every
	// request hits in cache — the all-hit workload.
	HotSet
)

// NFSReadLoad is a closed-loop NFS read generator: Concurrency workers per
// client, each issuing the next read as soon as the previous completes
// (the paper adjusts the number of NFS daemons / outstanding requests the
// same way).
type NFSReadLoad struct {
	Clients     []*nfs.Client
	FH          nfs.FH
	FileSize    uint64
	RequestSize int
	Pattern     AccessPattern
	Concurrency int // workers per client
	// RNG is the shared stream's source (default seed 1).
	RNG *sim.RNG
	// Tracer, when set, opens a span per request. Nil-safe.
	Tracer *trace.Tracer

	loop
}

var _ Load = (*NFSReadLoad)(nil)

// SetTracer installs per-request span tracing.
func (l *NFSReadLoad) SetTracer(t *trace.Tracer) { l.Tracer = t }

// Start implements Load.
func (l *NFSReadLoad) Start() {
	if l.RNG == nil {
		l.RNG = sim.NewRNG(1)
	}
	l.start(len(l.Clients), l.Concurrency, &stream{rng: l.RNG}, nil,
		func(w *worker) {
			off := nextOffset(w.st, l.Pattern, l.FileSize, l.RequestSize)
			w.sp = l.Tracer.Begin("read")
			l.Clients[w.lane].Read(l.FH, off, l.RequestSize, w.onRead)
		})
}

// nextOffset advances one stream's access pattern over a file.
func nextOffset(st *stream, pattern AccessPattern, fileSize uint64, reqSize int) uint64 {
	req := uint64(reqSize)
	span := fileSize / req
	if pattern == HotSet {
		return uint64(st.rng.Int63n(int64(span))) * req
	}
	off := (st.seq % span) * req
	st.seq++
	return off
}

// NFSWriteLoad is a closed-loop NFS write generator streaming sequentially
// through the file.
type NFSWriteLoad struct {
	Clients     []*nfs.Client
	FH          nfs.FH
	FileSize    uint64
	RequestSize int
	Concurrency int
	// Tracer, when set, opens a span per request. Nil-safe.
	Tracer *trace.Tracer

	loop
}

var _ Load = (*NFSWriteLoad)(nil)

// Start implements Load.
func (l *NFSWriteLoad) Start() {
	l.start(len(l.Clients), l.Concurrency, &stream{}, nil,
		func(w *worker) {
			c := l.Clients[w.lane]
			off := nextOffset(w.st, Sequential, l.FileSize, l.RequestSize)
			w.sp = l.Tracer.Begin("write")
			c.Write(l.FH, off, junkChain(c, l.RequestSize), w.onWrite)
		})
}
