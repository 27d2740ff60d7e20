package trace

import (
	"sort"

	"ncache/internal/sim"
)

// Tracer creates and collects spans for one simulated configuration. A nil
// *Tracer is the disabled state: Begin returns nil spans and every other
// method is a no-op, so callers never branch on "tracing on?".
type Tracer struct {
	eng    *sim.Engine
	label  string
	nextID uint64
	keep   bool
	frozen bool

	spans []*Span
	agg   map[string]*opAgg
	// attrErrs counts spans whose layer attribution failed to sum to the
	// end-to-end duration — zero by construction; exported as a self-check.
	attrErrs uint64

	// ahead is a min-heap by instant of the layer switches spans booked
	// with ToAt for instants the clock had not reached. Every span method
	// that reads the clock first takes the switches due (catchUp), so each
	// span sees its own in the order the clock would have reached them.
	// (Only frames book ahead, all to LNet, so the order of two switches
	// at one instant cannot matter.)
	ahead []booked
}

// booked is one switch in Tracer.ahead.
type booked struct {
	at sim.Time
	s  *Span
	l  Layer
}

// book files s's switch to l at the instant at.
func (t *Tracer) book(s *Span, l Layer, at sim.Time) {
	h := append(t.ahead, booked{at, s, l})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[i].at >= h[p].at {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	t.ahead = h
}

// catchUp makes every booked switch the clock has reached, on a span not
// yet finished, and returns now.
func (t *Tracer) catchUp() sim.Time {
	now := t.eng.Now()
	for len(t.ahead) > 0 && t.ahead[0].at <= now {
		b := t.ahead[0]
		if s := b.s; !s.done {
			s.closeSegment(b.at)
			s.cur = b.l
		}
		h := t.ahead
		n := len(h) - 1
		h[0], h[n] = h[n], booked{}
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].at < h[c].at {
				c++
			}
			if h[c].at >= h[i].at {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		t.ahead = h
	}
	return now
}

// opAgg accumulates window statistics for one operation type.
type opAgg struct {
	hist    *Histogram
	total   sim.Duration
	layers  [NumLayers]sim.Duration
	charged [NumLayers]sim.Duration
	faults  [NumLayers]sim.Duration
	faultN  [NumLayers]uint64
}

// NewTracer attaches a tracer to an engine. label names the configuration
// under test (it prefixes exported trace processes), e.g. "NFS-NCache/32KB".
func NewTracer(eng *sim.Engine, label string) *Tracer {
	return &Tracer{eng: eng, label: label, agg: make(map[string]*opAgg)}
}

// Label returns the configuration label.
func (t *Tracer) Label() string { return t.label }

// SetKeepSpans retains finished spans (with their phase timelines) for
// export. Off by default: histograms alone are constant-memory.
func (t *Tracer) SetKeepSpans(keep bool) {
	if t != nil {
		t.keep = keep
	}
}

// Begin starts a span for one request and makes it the engine's current
// request context, so every event scheduled by the issuing code inherits
// it. Returns nil (a valid no-op span) on a nil tracer.
func (t *Tracer) Begin(op string) *Span {
	if t == nil {
		return nil
	}
	t.nextID++
	now := t.eng.Now()
	s := &Span{
		id:         t.nextID,
		op:         op,
		start:      now,
		tracer:     t,
		cur:        LClient,
		lastSwitch: now,
	}
	t.eng.SetContext(s)
	return s
}

// BeginOn is Begin. Inert shim: a cluster has one engine, the tracer's own;
// it stays only because benchmarks/ncmark calls it (DESIGN.md §11).
func (t *Tracer) BeginOn(_ *sim.Engine, op string) *Span { return t.Begin(op) }

// finish folds a completed span into the window aggregates.
func (t *Tracer) finish(s *Span) {
	if t.frozen {
		return
	}
	var sum sim.Duration
	for _, d := range s.layers {
		sum += d
	}
	if diff := sum - s.Duration(); diff > 1 || diff < -1 {
		t.attrErrs++
	}
	a := t.agg[s.op]
	if a == nil {
		a = &opAgg{hist: NewHistogram()}
		t.agg[s.op] = a
	}
	a.hist.Record(s.Duration())
	a.total += s.Duration()
	for i := range s.layers {
		a.layers[i] += s.layers[i]
		a.charged[i] += s.charged[i]
		a.faults[i] += s.faults[i]
		a.faultN[i] += s.faultN[i]
	}
	if t.keep {
		t.spans = append(t.spans, s)
	}
}

// ResetStats discards everything recorded so far (spans in flight continue
// and will record into the fresh window). Call at the start of the
// steady-state measurement window.
func (t *Tracer) ResetStats() {
	if t == nil {
		return
	}
	t.spans = nil
	t.agg = make(map[string]*opAgg)
	t.attrErrs = 0
	t.frozen = false
}

// Freeze stops recording: spans finishing later (the post-window drain) are
// dropped, bounding statistics to the measurement window.
func (t *Tracer) Freeze() {
	if t == nil {
		return
	}
	t.frozen = true
}

// AttributionErrors reports spans whose per-layer sums missed the
// end-to-end duration by more than 1 ns. Always zero; exported so tests and
// tools can assert the invariant.
func (t *Tracer) AttributionErrors() uint64 {
	if t == nil {
		return 0
	}
	return t.attrErrs
}

// Spans returns retained spans sorted by (start, id). Empty unless
// SetKeepSpans(true).
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].id < out[j].id
	})
	return out
}

// LayerStat is one layer's share of an operation's total latency.
type LayerStat struct {
	Layer Layer
	// Total is timeline time attributed to the layer across all requests.
	Total sim.Duration
	// Charged is fire-and-forget CPU demand booked to the layer.
	Charged sim.Duration
	// Fault is injected-fault latency booked to the layer (delays added
	// by the fault subsystem plus recovery waits), and FaultCount the
	// number of injections, including zero-delay drops and errors.
	Fault sim.Duration
	// FaultCount is the number of fault injections booked to the layer.
	FaultCount uint64
}

// OpSummary is the measurement-window latency summary for one operation.
type OpSummary struct {
	Op     string
	Count  uint64
	Mean   sim.Duration
	P50    sim.Duration
	P90    sim.Duration
	P99    sim.Duration
	P999   sim.Duration
	Max    sim.Duration
	Total  sim.Duration
	Layers []LayerStat
	Hist   *Histogram
}

// Summary is a tracer's full latency report.
type Summary struct {
	Label string
	Ops   []OpSummary
	// AttrErrors mirrors Tracer.AttributionErrors at summary time.
	AttrErrors uint64
}

// Summary snapshots the current window. Returns nil on a nil tracer.
func (t *Tracer) Summary() *Summary {
	if t == nil {
		return nil
	}
	ops := make([]string, 0, len(t.agg))
	for op := range t.agg { // det: sorted
		ops = append(ops, op)
	}
	sort.Strings(ops)
	s := &Summary{Label: t.label, AttrErrors: t.attrErrs}
	for _, op := range ops {
		a := t.agg[op]
		o := OpSummary{
			Op:    op,
			Count: a.hist.Count(),
			Mean:  a.hist.Mean(),
			P50:   a.hist.Quantile(0.50),
			P90:   a.hist.Quantile(0.90),
			P99:   a.hist.Quantile(0.99),
			P999:  a.hist.Quantile(0.999),
			Max:   a.hist.Max(),
			Total: a.total,
			Hist:  a.hist,
		}
		for l := Layer(0); l < NumLayers; l++ {
			o.Layers = append(o.Layers, LayerStat{
				Layer: l, Total: a.layers[l], Charged: a.charged[l],
				Fault: a.faults[l], FaultCount: a.faultN[l],
			})
		}
		s.Ops = append(s.Ops, o)
	}
	return s
}
