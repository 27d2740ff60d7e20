// Package trace is the request-level tracing and latency-attribution
// subsystem. A Span follows one client request through the whole simulated
// data path — client, wire, RPC, server logic, file system, NCache, iSCSI,
// disk — on the engine's virtual clock, and attributes every nanosecond of
// its end-to-end latency to exactly one layer.
//
// Propagation needs no plumbing: spans ride the sim.Engine's event context,
// which is inherited by every event scheduled from the current one. A layer
// calls To just before starting asynchronous work (a CPU charge, a link
// serialization, a disk access) and the time until the next switch — queueing
// delay included — accrues to that layer. Because the segments partition
// [start, end] of each span, per-layer attribution sums to the end-to-end
// duration exactly, by construction.
//
// Tracing is zero-cost when disabled: a nil *Tracer produces nil *Spans, and
// every method the data path calls is a nil-receiver no-op; only the readers
// of a finished span (ID, Op, Start, ...) and Tracer.Label need a real one.
// Nothing here schedules events or charges costs, so enabling tracing never
// changes a simulation result.
package trace

import "ncache/internal/sim"

// Layer identifies one stage of the data path for latency attribution.
type Layer uint8

// The attribution layers, ordered roughly top (client) to bottom (disk).
const (
	// LClient is time attributed to the requesting client itself:
	// request construction before the RPC send.
	LClient Layer = iota
	// LNet is wire time: NIC transmit serialization, switch forwarding,
	// propagation, and receive interrupt processing.
	LNet
	// LRPC is RPC/XDR processing on either side (SunRPC framing, reply
	// matching) including its CPU queueing.
	LRPC
	// LServer is per-operation server logic: NFS/HTTP dispatch, reply
	// composition, and the data-path copies charged at that level.
	LServer
	// LFS is file-system and buffer-cache work: mapping, cache lookup,
	// block assembly.
	LFS
	// LNCache is network-centric cache management on the request's
	// critical path (second-level hit service).
	LNCache
	// LISCSI is iSCSI command processing, initiator and target.
	LISCSI
	// LDisk is disk-arm service (positioning + media transfer) and its
	// queueing.
	LDisk
	// NumLayers bounds the enum.
	NumLayers
)

var layerNames = [NumLayers]string{
	"client", "net", "rpc", "server", "fs", "ncache", "iscsi", "disk",
}

// String names the layer.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "?"
}

// Phase is one contiguous segment of a span's timeline spent in one layer.
type Phase struct {
	Layer      Layer
	Start, End sim.Time
}

// Span is the trace of one request. Every recording method is safe on a nil
// receiver (the disabled-tracing fast path) and after Finish.
type Span struct {
	id    uint64
	op    string
	start sim.Time
	end   sim.Time

	tracer     *Tracer
	cur        Layer
	lastSwitch sim.Time
	done       bool

	// layers partitions [start,end]: time the request spent with each
	// layer responsible for its progress (queueing included).
	layers [NumLayers]sim.Duration
	// charged tallies CPU demand billed on the request's behalf by fire-
	// and-forget charges (e.g. NCache LRU maintenance) — cost that delays
	// other requests rather than gating this one, so it is reported
	// separately and does not enter the timeline partition.
	charged [NumLayers]sim.Duration
	// faults books injected-fault latency per layer: delays the fault
	// subsystem added on this request's critical path (disk latency
	// spikes, held-back frames) and the recovery waits its transports
	// spent (RPC retransmission timeouts, iSCSI retry backoffs). faultN
	// counts injections, including zero-delay ones (drops, transient
	// errors) whose cost shows up only through recovery.
	faults [NumLayers]sim.Duration
	faultN [NumLayers]uint64

	// phases is the explicit segment list, kept only when the tracer
	// retains spans for export.
	phases []Phase
}

// ID returns the span's sequence number.
func (s *Span) ID() uint64 { return s.id }

// Op returns the operation label.
func (s *Span) Op() string { return s.op }

// Start returns the span's start time.
func (s *Span) Start() sim.Time { return s.start }

// End returns the span's end time (valid after Finish).
func (s *Span) End() sim.Time { return s.end }

// Duration returns the end-to-end latency (valid after Finish).
func (s *Span) Duration() sim.Duration { return s.end.Sub(s.start) }

// Layers returns the per-layer timeline attribution.
func (s *Span) Layers() [NumLayers]sim.Duration { return s.layers }

// Phases returns the retained segment list (nil unless the tracer keeps
// spans).
func (s *Span) Phases() []Phase { return s.phases }

// To attributes the timeline since the previous switch to the current layer
// and makes l the active layer. Call it just before starting asynchronous
// work on behalf of the request. No-op on nil or finished spans.
func (s *Span) To(l Layer) {
	if s != nil {
		s.ToAt(l, s.tracer.eng.Now())
	}
}

// ToAt is To at the instant at, which may lie ahead of the clock: work
// reserved now that starts at a known later instant (a frame clocked out
// when its sender's CPU time ends) switches the layer when it starts. Until
// then the span goes on as if ToAt had not been called, and a span that
// finishes first never takes the switch.
func (s *Span) ToAt(l Layer, at sim.Time) {
	if s == nil || s.done || l >= NumLayers {
		return
	}
	now := s.tracer.catchUp()
	if at > now {
		s.tracer.book(s, l, at)
		return
	}
	s.closeSegment(now)
	s.cur = l
}

// closeSegment accrues [lastSwitch, now) to the active layer.
func (s *Span) closeSegment(now sim.Time) {
	if now > s.lastSwitch {
		s.layers[s.cur] += now.Sub(s.lastSwitch)
		if s.phases != nil || s.tracer.keep {
			s.phases = append(s.phases, Phase{s.cur, s.lastSwitch, now})
		}
		s.lastSwitch = now
	}
}

// Account records fire-and-forget CPU demand billed for this request in
// layer l. It is bookkeeping only — no timeline impact.
func (s *Span) Account(l Layer, d sim.Duration) {
	if s == nil || s.done || l >= NumLayers || d <= 0 {
		return
	}
	s.charged[l] += d
}

// Fault books injected-fault latency d (possibly zero, for drops and
// transient errors) against layer l. Like Account it is bookkeeping only:
// the delay itself reaches the timeline through whatever the fault slowed
// down, so fault attribution never double-enters the layer partition.
func (s *Span) Fault(l Layer, d sim.Duration) {
	if s == nil || s.done || l >= NumLayers || d < 0 {
		return
	}
	s.faults[l] += d
	s.faultN[l]++
}

// Finish closes the span at the current virtual time and hands it to its
// tracer. Further To/Account calls are no-ops.
func (s *Span) Finish() {
	if s == nil || s.done {
		return
	}
	now := s.tracer.catchUp()
	s.closeSegment(now)
	s.end = now
	s.done = true
	s.tracer.finish(s)
}

// Active returns the span carried by the engine's current event context, or
// nil when tracing is off or the event is not part of a traced request.
func Active(eng *sim.Engine) *Span {
	s, _ := eng.Context().(*Span)
	return s
}

// To switches the active span (if any) to layer l.
func To(eng *sim.Engine, l Layer) {
	Active(eng).To(l)
}

// ToAt switches the active span (if any) to layer l at the instant at.
func ToAt(eng *sim.Engine, l Layer, at sim.Time) {
	Active(eng).ToAt(l, at)
}

// Account books fire-and-forget CPU demand on the active span (if any).
func Account(eng *sim.Engine, l Layer, d sim.Duration) {
	Active(eng).Account(l, d)
}

// Fault books injected-fault latency on the active span (if any).
func Fault(eng *sim.Engine, l Layer, d sim.Duration) {
	Active(eng).Fault(l, d)
}
