// Package fault is the deterministic fault-injection subsystem. An Injector
// carries a set of declarative Schedules — frame drop/corruption/delay on
// simnet links, latency spikes and transient errors on disk arms, CPU
// contention bursts on node schedulers — and is consulted by each resource
// on the data path at its injection point. Every decision is drawn from a
// seeded per-schedule random stream on the engine's deterministic event
// order, so a fault run is bit-for-bit replayable from its seed.
//
// Faults annotate the request-level traces of package trace: a delay
// injected while a request's span is active is booked as fault-attributed
// latency in the layer where it was injected (disk spikes at LDisk, frame
// delays at LNet), and recovery costs booked by the transports (RPC
// retransmission waits, iSCSI retry backoffs) use the same channel. Ambient
// faults that cannot be pinned on one request (CPU contention bursts) are
// accounted on the injector itself and surface in its Report.
//
// A nil *Injector is the disabled state: every query method returns the
// zero Decision, so data-path code never branches on "faults on?".
package fault

import (
	"fmt"
	"sort"
	"strings"

	"ncache/internal/sim"
	"ncache/internal/trace"
)

// Class identifies one kind of injected fault.
type Class uint8

// The fault classes, ordered by the layer they strike.
const (
	// FrameDrop discards a frame at a NIC transmit queue or a switch
	// downlink before it reaches the wire.
	FrameDrop Class = iota
	// FrameCorrupt lets the frame burn wire time but spoils it, so the
	// receiver's checksum verification discards it on delivery. (The
	// frame is flagged rather than byte-flipped: wire buffers are
	// refcount-shared with cache entries, which must stay pristine.)
	FrameCorrupt
	// FrameDelay holds a frame back for the schedule's Delay before it is
	// forwarded — past later frames, so it also exercises reordering.
	FrameDelay
	// FrameDup transmits a frame twice; the duplicate burns wire time like
	// a real frame and exercises receiver duplicate suppression.
	FrameDup
	// DiskSlow adds the schedule's Delay to one disk-arm service (a
	// latency spike: thermal recalibration, a long seek, a bad-sector
	// retry inside the drive).
	DiskSlow
	// DiskError completes one disk I/O with a transient error after its
	// service time; the iSCSI target reports CHECK CONDITION and the
	// initiator retries.
	DiskError
	// CPUBurst occupies a node's CPU for the schedule's Delay once per
	// Period while the schedule is active — contention from work outside
	// the measured data path.
	CPUBurst
	// NodeKill crashes a registered node at the schedule's Start instant:
	// its server process dies whole and the node answers nothing until
	// the harness restarts it (with WAL replay). The kill is a
	// one-shot event at a virtual timestamp, so a crash "mid-flush" is a
	// deterministic, replayable point in the schedule.
	NodeKill
	// NumClasses bounds the enum.
	NumClasses
)

var classNames = [NumClasses]string{
	"drop", "corrupt", "delay", "dup", "slowdisk", "diskerr", "cpuburst", "kill",
}

// String names the class (the same token the spec grammar uses).
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "?"
}

// layerOf maps a fault class to the trace layer its latency is booked in.
func layerOf(c Class) trace.Layer {
	switch c {
	case FrameDrop, FrameCorrupt, FrameDelay, FrameDup:
		return trace.LNet
	case DiskSlow, DiskError:
		return trace.LDisk
	default:
		// CPUBurst and NodeKill are ambient; never booked on spans.
		return trace.LClient
	}
}

// Schedule is one declarative fault description. Rate-based schedules fire
// with probability Rate at each opportunity (each frame, each disk I/O);
// CPUBurst schedules fire once per Period. Start/End bound the active window
// in virtual time (End zero means no deadline), and Count caps the total
// injections (zero means unlimited) — Count 1 with a Start is a one-shot
// fault at a virtual timestamp.
type Schedule struct {
	Class Class
	// Target selects injection sites by name: "" or "*" match every
	// site, a trailing "*" matches by prefix, anything else must match
	// exactly. Sites are named "<node>.tx" (NIC transmit), "<node>.rx"
	// (switch downlink toward the node), "disk<N>" (arms), and
	// "<node>.cpu" (schedulers).
	Target string
	// Rate is the per-opportunity injection probability (frame and disk
	// classes).
	Rate float64
	// Delay is the injected magnitude for FrameDelay, DiskSlow and
	// CPUBurst.
	Delay sim.Duration
	// Period is the CPUBurst cadence (each burst lands at a uniformly
	// jittered offset within its period, so bursts never phase-lock with
	// the workload).
	Period sim.Duration
	// Start and End bound the active window; End zero means forever.
	Start, End sim.Time
	// Count caps total injections; zero means unlimited.
	Count uint64
}

// String renders the schedule in the spec grammar (parseable round-trip).
func (s Schedule) String() string {
	var b strings.Builder
	b.WriteString(s.Class.String())
	b.WriteByte(':')
	if s.Target == "" {
		b.WriteByte('*')
	} else {
		b.WriteString(s.Target)
	}
	if s.Rate > 0 {
		fmt.Fprintf(&b, ":rate=%g", s.Rate)
	}
	if s.Delay > 0 {
		fmt.Fprintf(&b, ":delay=%s", s.Delay)
	}
	if s.Period > 0 {
		fmt.Fprintf(&b, ":period=%s", s.Period)
	}
	if s.Start > 0 {
		fmt.Fprintf(&b, ":start=%s", sim.Duration(s.Start))
	}
	if s.End > 0 {
		fmt.Fprintf(&b, ":end=%s", sim.Duration(s.End))
	}
	if s.Count > 0 {
		fmt.Fprintf(&b, ":count=%d", s.Count)
	}
	return b.String()
}

// matches reports whether the schedule selects a site.
func (s Schedule) matches(site string) bool {
	t := s.Target
	if t == "" || t == "*" {
		return true
	}
	if strings.HasSuffix(t, "*") {
		return strings.HasPrefix(site, t[:len(t)-1])
	}
	return site == t
}

// schedState is one schedule plus its random stream and injection counters.
type schedState struct {
	Schedule
	rng *sim.RNG
	// injected counts faults fired by this schedule.
	injected uint64
	// delayed accumulates the virtual time this schedule injected.
	delayed sim.Duration
	// burst tracks the pending CPU-burst or kill event for Quiesce.
	burst sim.EventID
}

// active reports whether the schedule may fire at time now.
func (st *schedState) active(now sim.Time) bool {
	if now < st.Start {
		return false
	}
	if st.End > 0 && now > st.End {
		return false
	}
	if st.Count > 0 && st.injected >= st.Count {
		return false
	}
	return true
}

// Decision is the outcome of one injection-point query. The zero value means
// "no fault".
type Decision struct {
	// Drop discards the frame before it costs wire time.
	Drop bool
	// Corrupt lets the frame travel but spoils it for delivery.
	Corrupt bool
	// Dup transmits an extra copy of the frame.
	Dup bool
	// Delay is extra latency to add at the injection point.
	Delay sim.Duration
	// Err fails the operation with a transient error.
	Err bool
}

// cpuSite is one scheduler resource registered for CPU-burst schedules.
type cpuSite struct {
	site string
	cpu  *sim.Resource
}

// killSite is one node registered for NodeKill schedules: fn crashes the
// node.
type killSite struct {
	site string
	fn   func()
}

// Injector owns the schedules for one simulated configuration. A nil
// injector declines every query. An injector starts disarmed so testbed
// bring-up, formatting and prefill run fault-free; Arm starts injection and
// Quiesce stops it again before the post-window drain.
type Injector struct {
	eng    *sim.Engine
	seed   uint64
	scheds []*schedState
	cpus   []cpuSite
	kills  []killSite
	// armed gates all injection; quiesced is the terminal off state (set
	// before the post-window drain so recovery completes and the event
	// loop terminates).
	armed    bool
	quiesced bool
}

// New creates an injector on the engine. Each schedule added later draws
// from its own random stream derived from seed, so schedules never perturb
// one another's decisions.
func New(eng *sim.Engine, seed uint64) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{eng: eng, seed: seed}
}

// Add installs one schedule.
func (in *Injector) Add(s Schedule) {
	if in == nil {
		return
	}
	idx := uint64(len(in.scheds))
	seed := in.seed ^ (0x9e3779b97f4a7c15 * (idx + 1))
	in.scheds = append(in.scheds, &schedState{Schedule: s, rng: sim.NewRNG(seed)})
}

// Arm starts injection: rate queries begin drawing and the CPU-burst loops
// of every registered scheduler are scheduled. Experiments call it once the
// testbed is set up, at the start of the driven load.
func (in *Injector) Arm() {
	if in == nil || in.armed || in.quiesced {
		return
	}
	in.armed = true
	for _, cs := range in.cpus {
		for _, st := range in.scheds {
			if st.Class != CPUBurst || !st.matches(cs.site) {
				continue
			}
			if st.Period <= 0 || st.Delay <= 0 {
				continue
			}
			in.scheduleBurst(st, cs, st.Start)
		}
	}
	for _, ks := range in.kills {
		for _, st := range in.scheds {
			if st.Class != NodeKill || !st.matches(ks.site) {
				continue
			}
			in.scheduleKill(st, ks)
		}
	}
}

// Quiesce stops all injection: rate queries return the zero Decision and
// pending CPU-burst events are canceled. Experiments call it at the end of
// the measurement window so the drain completes fault-free.
func (in *Injector) Quiesce() {
	if in == nil {
		return
	}
	in.quiesced = true
	for _, st := range in.scheds {
		if in.eng.Cancel(st.burst) {
			st.burst = sim.EventID{}
		}
	}
}

// decide runs the rate draw for every matching schedule of the given
// classes and folds the outcomes into one Decision. Each matching schedule
// draws exactly once per opportunity whether or not it fires, keeping each
// stream's consumption independent of other schedules' outcomes.
func (in *Injector) decide(site string, classes ...Class) Decision {
	var d Decision
	if in == nil || !in.armed || in.quiesced {
		return d
	}
	eng := in.eng
	now := eng.Now()
	for _, st := range in.scheds {
		wanted := false
		for _, c := range classes {
			if st.Class == c {
				wanted = true
				break
			}
		}
		if !wanted || !st.matches(site) {
			continue
		}
		if !st.active(now) {
			continue
		}
		if st.Rate <= 0 || st.rng.Float64() >= st.Rate {
			continue
		}
		st.injected++
		switch st.Class {
		case FrameDrop:
			d.Drop = true
			trace.Fault(eng, trace.LNet, 0)
		case FrameCorrupt:
			d.Corrupt = true
			trace.Fault(eng, trace.LNet, 0)
		case FrameDup:
			d.Dup = true
			trace.Fault(eng, trace.LNet, 0)
		case FrameDelay, DiskSlow:
			d.Delay += st.Delay
			st.delayed += st.Delay
			trace.Fault(eng, layerOf(st.Class), st.Delay)
		case DiskError:
			d.Err = true
			trace.Fault(eng, trace.LDisk, 0)
		}
	}
	return d
}

// FrameTx is consulted by a NIC for each outgoing frame; site is
// "<node>.tx".
func (in *Injector) FrameTx(site string) Decision {
	return in.decide(site, FrameDrop, FrameCorrupt, FrameDelay, FrameDup)
}

// DrawsFrames reports whether a frame-fault schedule names site. Such a
// schedule draws from one random stream for every site it names, so a NIC
// whose transmit site it names must take each decision at the instant its
// frame departs, and a switch port whose receive site it names at the
// instant a frame arrives, in the order of those instants.
func (in *Injector) DrawsFrames(site string) bool {
	if in == nil {
		return false
	}
	for _, st := range in.scheds {
		if layerOf(st.Class) == trace.LNet && st.matches(site) {
			return true
		}
	}
	return false
}

// FrameRx is consulted by the switch for each frame heading to a port; site
// is "<node>.rx".
func (in *Injector) FrameRx(site string) Decision {
	return in.decide(site, FrameDrop, FrameCorrupt, FrameDelay, FrameDup)
}

// Disk is consulted by a disk arm for each I/O; site is the disk name.
func (in *Injector) Disk(site string) Decision {
	return in.decide(site, DiskSlow, DiskError)
}

// AttachCPU registers a node's scheduler resource as a CPU-burst site; site
// is "<node>.cpu". Call once per node at testbed assembly — the burst loops
// themselves start at Arm.
func (in *Injector) AttachCPU(site string, cpu *sim.Resource) {
	if in == nil {
		return
	}
	in.cpus = append(in.cpus, cpuSite{site: site, cpu: cpu})
}

// AttachKill registers a node as a NodeKill site; site is the node's name
// and fn its crash handler. Call once per killable node at testbed assembly
// — the one-shot kill event is armed at Arm.
func (in *Injector) AttachKill(site string, fn func()) {
	if in == nil {
		return
	}
	in.kills = append(in.kills, killSite{site: site, fn: fn})
}

// scheduleKill arms one deterministic crash at the schedule's Start
// instant. The event is tracked in the schedule's state so Quiesce cancels a
// kill that has not fired yet.
func (in *Injector) scheduleKill(st *schedState, ks killSite) {
	eng := in.eng
	at := st.Start
	if at < eng.Now() {
		at = eng.Now()
	}
	st.burst = eng.At(at, func() {
		if in.quiesced || !st.active(eng.Now()) {
			return
		}
		st.injected++
		ks.fn()
	})
}

// scheduleBurst arms one burst at a jittered offset within the period
// starting at from.
func (in *Injector) scheduleBurst(st *schedState, cs cpuSite, from sim.Time) {
	if !in.armed || in.quiesced {
		return
	}
	eng := in.eng
	if from < eng.Now() {
		from = eng.Now()
	}
	at := from.Add(sim.Duration(float64(st.Period) * st.rng.Float64()))
	if st.End > 0 && at > st.End {
		return
	}
	if st.Count > 0 && st.injected >= st.Count {
		return
	}
	st.burst = eng.At(at, func() {
		if in.quiesced || !st.active(eng.Now()) {
			return
		}
		st.injected++
		st.delayed += st.Delay
		cs.cpu.Use(st.Delay, nil)
		in.scheduleBurst(st, cs, from.Add(st.Period))
	})
}

// ScheduleReport is one schedule's injection tally.
type ScheduleReport struct {
	Spec     string
	Injected uint64
	// Delayed is the total virtual time this schedule injected (delay
	// classes only; drops and errors report zero here — their cost
	// surfaces as recovery latency on the affected requests).
	Delayed sim.Duration
}

// Report tallies every schedule, sorted by spec for deterministic output.
func (in *Injector) Report() []ScheduleReport {
	if in == nil {
		return nil
	}
	out := make([]ScheduleReport, 0, len(in.scheds))
	for _, st := range in.scheds {
		out = append(out, ScheduleReport{
			Spec:     st.Schedule.String(),
			Injected: st.injected,
			Delayed:  st.delayed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec < out[j].Spec })
	return out
}

// FormatReport renders a report as one line per schedule.
func FormatReport(rs []ScheduleReport) string {
	if len(rs) == 0 {
		return "no faults injected\n"
	}
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "  %-48s injected=%-8d delay=%s\n", r.Spec, r.Injected, r.Delayed)
	}
	return b.String()
}
