package storage

import (
	"fmt"
	"slices"
	"sort"

	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
)

// Policy selects which healthy arm serves a read.
type Policy int

const (
	// PolicyPrimaryFirst always reads from the lowest-indexed healthy arm
	// (the classic active/passive pair).
	PolicyPrimaryFirst Policy = iota
	// PolicyRoundRobin rotates reads across healthy arms.
	PolicyRoundRobin
	// PolicyLeastLatency reads from the arm with the lowest EWMA command
	// latency — the NetCAS-style dynamic selection that routes around a
	// slow (but not erroring) arm.
	PolicyLeastLatency
)

// ParsePolicy maps a policy's name (ClusterConfig.ArmPolicy, the fig-avail
// table) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "primary-first":
		return PolicyPrimaryFirst, nil
	case "round-robin":
		return PolicyRoundRobin, nil
	case "least-latency":
		return PolicyLeastLatency, nil
	}
	return 0, fmt.Errorf("storage: unknown arm policy %q", s)
}

// String names the policy for stats tables.
func (p Policy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyLeastLatency:
		return "least-latency"
	}
	return "primary-first"
}

// The breaker's fixed calibration.
const (
	// breakerErrorThreshold opens the breaker after this many consecutive
	// command failures (each already past initiator-level retries).
	breakerErrorThreshold = 3
	// breakerOpenTimeout is how long an open arm waits before its
	// half-open probe.
	breakerOpenTimeout = 5 * sim.Millisecond
	// ewmaAlpha is the smoothing factor of the command-latency estimate.
	ewmaAlpha = 0.2
	// resyncBatchBlocks bounds one catch-up copy round.
	resyncBatchBlocks = 64
)

// arm is one mirror leg with its breaker state and dirty-region log.
type arm struct {
	name string
	ini  Initiator

	state      ArmState
	consecErrs int
	ewmaUs     float64

	// dirty maps LBN -> generation of the write that dirtied it; a landed
	// write or copy only clears entries logged before it was issued, so a
	// block re-dirtied meanwhile stays in the log.
	dirty map[int64]uint64
	// inflight marks blocks with a catch-up copy outstanding: a
	// write-through landing on such a block must not clear the dirty
	// entry, because the in-flight copy may overwrite it with older data.
	inflight map[int64]int

	stats ArmStats
}

// Mirror is a target's volume: one LBN range over its 1..N arms. Writes fan
// out to every closed (and resyncing) arm as cloned chains — tagged
// "storage.mirror" so pool-leak attribution can see them — and succeed once
// any closed arm took the write, though completion waits for all issued legs
// to settle so a subsequent read can never observe a half-landed write.
// Reads pick one current arm by policy and fail over on error. A per-arm
// circuit breaker (closed -> open -> half-open probe -> resync -> closed)
// ejects dead arms so the cluster keeps serving from the surviving arm plus
// cache; the dirty-region log accumulated while an arm is out drives the
// catch-up copy that brings it back.
//
// Two rules keep some arm closed and every closed arm honest:
//   - R1: an arm is ejected only while another arm is closed, so a closed
//     arm always exists to take writes and source a resync;
//   - R2: a failed write is logged in an arm's dirty-region log only if it
//     was also issued to another closed arm, to hold the bytes the write may
//     have left stale there once it is acked off that arm.
//
// With one arm neither ever fires: every error passes up per command, and
// the arm is never ejected, probed or logged — a plain delegating arm.
//
// All state is mutated in event callbacks on the owning node's engine, so
// the mirror is part of the deterministic event schedule.
type Mirror struct {
	node   *simnet.Node
	arms   []*arm
	policy Policy
	rr     int
	gen    uint64
	// reads and writes are the free lists of the request records (see
	// mirrorRead and mirrorWrite).
	reads  netbuf.FreeList[*mirrorRead]
	writes netbuf.FreeList[*mirrorWrite]
}

var _ Volume = (*Mirror)(nil)

// NewMirror builds a mirror over one or more connected initiators. names
// label the arms in stats and must parallel inis; policy selects the read arm.
func NewMirror(node *simnet.Node, names []string, inis []Initiator, policy Policy) *Mirror {
	m := &Mirror{node: node, policy: policy}
	for i, ini := range inis {
		m.arms = append(m.arms, &arm{
			name:     names[i],
			ini:      ini,
			dirty:    make(map[int64]uint64),
			inflight: make(map[int64]int),
		})
	}
	return m
}

// BlockSize implements Volume.
func (m *Mirror) BlockSize() int { return m.arms[0].ini.Geometry().BlockSize }

// current reports whether the arm holds the latest bytes of the whole range:
// nothing in it is logged dirty or has a catch-up copy in flight.
func (a *arm) current(lbn int64, blocks int) bool {
	for b := lbn; b < lbn+int64(blocks); b++ {
		if _, dirty := a.dirty[b]; dirty || a.inflight[b] > 0 {
			return false
		}
	}
	return true
}

// landed records that a write's bytes reached the arm: it clears the range's
// dirty entries logged up to mark, the generation when the write was issued,
// unless a catch-up copy (which may carry older bytes) is still in flight
// underneath. Entries logged later stay for the next copy.
func (a *arm) landed(lbn int64, blocks int, mark uint64) {
	if len(a.dirty) == 0 {
		return
	}
	for b := lbn; b < lbn+int64(blocks); b++ {
		if g, ok := a.dirty[b]; ok && g <= mark && a.inflight[b] == 0 {
			delete(a.dirty, b)
		}
	}
}

// readEligible appends to out the arms a read may use, in preference tiers of
// arms current for the whole range: closed, then resyncing, then ejected
// (open, then half-open: an ejected arm's reads may still work). Only when
// no arm is current is every arm offered, as a last resort.
func (m *Mirror) readEligible(lbn int64, blocks int, out []int) []int {
	for _, tier := range [...]ArmState{ArmClosed, ArmResync, ArmOpen, ArmHalfOpen} {
		for i, a := range m.arms {
			if a.state == tier && a.current(lbn, blocks) {
				out = append(out, i)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	for i := range m.arms {
		out = append(out, i)
	}
	return out
}

// closedPeer returns the first closed arm other than a, or nil: R1 acts only
// while there is one.
func (m *Mirror) closedPeer(a *arm) *arm {
	for _, o := range m.arms {
		if o != a && o.state == ArmClosed {
			return o
		}
	}
	return nil
}

// pick applies the selection policy over an eligible set.
func (m *Mirror) pick(eligible []int) int {
	switch m.policy {
	case PolicyRoundRobin:
		idx := eligible[m.rr%len(eligible)]
		m.rr++
		return idx
	case PolicyLeastLatency:
		best := eligible[0]
		for _, i := range eligible[1:] {
			if m.arms[i].ewmaUs < m.arms[best].ewmaUs {
				best = i
			}
		}
		return best
	}
	return eligible[0]
}

// sample folds one command latency into the arm's EWMA.
func (m *Mirror) sample(a *arm, start sim.Time) {
	us := float64(m.node.Eng.Now()-start) / 1e3
	if a.ewmaUs == 0 {
		a.ewmaUs = us
	} else {
		a.ewmaUs = ewmaAlpha*us + (1-ewmaAlpha)*a.ewmaUs
	}
}

// armError books one failed command and trips the breaker at the threshold
// — while another arm is closed (R1).
func (m *Mirror) armError(a *arm) {
	a.stats.Errors++
	if a.state != ArmClosed && a.state != ArmResync {
		return
	}
	a.consecErrs++
	if a.consecErrs >= breakerErrorThreshold && m.closedPeer(a) != nil {
		m.eject(a)
	}
}

// eject moves an arm to open and schedules the half-open probe. The wait is
// booked as fault-attributed iSCSI time: it is recovery latency the
// injected fault caused, not modeled work.
func (m *Mirror) eject(a *arm) {
	a.state = ArmOpen
	a.consecErrs = 0
	a.stats.Ejections++
	trace.Fault(m.node.Eng, trace.LISCSI, 0)
	m.node.Schedule(breakerOpenTimeout, func() { m.probe(a) })
}

// probe is the half-open attempt: one metadata block read decides whether
// the arm re-enters service (via resync) or stays open another timeout.
func (m *Mirror) probe(a *arm) {
	if a.state != ArmOpen {
		return
	}
	a.state = ArmHalfOpen
	a.stats.Probes++
	start := m.node.Eng.Now()
	a.ini.Read(0, 1, true, func(data *netbuf.Chain, err error) {
		data.Release()
		if err != nil {
			a.stats.Errors++
			a.state = ArmOpen
			m.node.Schedule(breakerOpenTimeout, func() { m.probe(a) })
			return
		}
		m.sample(a, start)
		a.state = ArmResync
		a.consecErrs = 0
		m.resyncStep(a)
	})
}

// resyncStep drains one batch of the dirty-region log: coalesced runs are
// read from a closed source arm and written back (raw replica copies, below
// any interception). A dirty entry is cleared only if it was logged before
// the copy started; concurrent write-throughs re-dirty blocks, and the next
// step picks them up. A step whose copies all failed on the source retries
// after an open timeout. When the log is empty the arm closes.
func (m *Mirror) resyncStep(a *arm) {
	if a.state != ArmResync {
		return
	}
	if len(a.dirty) == 0 {
		a.state = ArmClosed
		a.consecErrs = 0
		a.stats.Resyncs++
		return
	}
	// R1 leaves a closed arm to copy from: only ejection leaves closed.
	srcArm := m.closedPeer(a)
	mark := m.gen
	lbns := make([]int64, 0, len(a.dirty))
	for b := range a.dirty { // det: collected keys are sorted before use
		lbns = append(lbns, b)
	}
	sort.Slice(lbns, func(i, j int) bool { return lbns[i] < lbns[j] })
	if len(lbns) > resyncBatchBlocks {
		lbns = lbns[:resyncBatchBlocks]
	}
	// Coalesce adjacent LBNs into runs, one copy I/O per run.
	type run struct {
		lbn int64
		n   int
	}
	var runs []run
	for _, b := range lbns {
		if len(runs) > 0 && runs[len(runs)-1].lbn+int64(runs[len(runs)-1].n) == b {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{lbn: b, n: 1})
		}
	}
	remaining, srcErrs := len(runs), 0
	settle := func() {
		remaining--
		if remaining > 0 {
			return
		}
		if srcErrs == len(runs) {
			// The source failed every copy: retry after an open timeout,
			// not at I/O rate (R1 may keep a failing source closed).
			m.node.Schedule(breakerOpenTimeout, func() { m.resyncStep(a) })
			return
		}
		m.resyncStep(a)
	}
	for _, r := range runs {
		r := r
		for i := 0; i < r.n; i++ {
			a.inflight[r.lbn+int64(i)]++
		}
		clear := func() {
			for i := 0; i < r.n; i++ {
				b := r.lbn + int64(i)
				if a.inflight[b]--; a.inflight[b] == 0 {
					delete(a.inflight, b)
				}
			}
		}
		srcArm.ini.Read(r.lbn, r.n, true, func(data *netbuf.Chain, err error) {
			if err != nil {
				clear()
				srcErrs++
				m.armError(srcArm)
				settle()
				return
			}
			data.SetOwner("storage.mirror")
			a.ini.Write(r.lbn, data, true, func(werr error) {
				clear()
				if werr != nil {
					m.armError(a)
					settle()
					return
				}
				a.stats.ResyncBlocks += uint64(r.n)
				a.landed(r.lbn, r.n, mark)
				settle()
			})
		})
	}
}

// markDirty logs a block range the arm missed (or may hold stale).
func (m *Mirror) markDirty(a *arm, lbn int64, blocks int) {
	for b := lbn; b < lbn+int64(blocks); b++ {
		m.gen++
		a.dirty[b] = m.gen
	}
}

// ReadAt implements Volume: read from the policy-selected arm, failing over
// to the remaining eligible arms.
func (m *Mirror) ReadAt(lbn int64, blocks int, meta bool, done func(*netbuf.Chain, error)) {
	r := m.reads.Take()
	if r == nil {
		r = &mirrorRead{m: m}
		r.onData = r.arrived
	}
	r.lbn, r.blocks, r.meta, r.done = lbn, blocks, meta, done
	// The policy's pick goes first; the rest keep their tier order.
	r.order = m.readEligible(lbn, blocks, r.order)
	first := m.pick(r.order)
	k := slices.Index(r.order, first)
	copy(r.order[1:k+1], r.order[:k])
	r.order[0] = first
	r.issue()
}

// mirrorRead is the recycled record of one read through the mirror: the arms
// it may try in order (a slice whose capacity the record keeps), the attempt
// in flight and when it started, and the caller's completion. arrived is
// bound once, when the record is first allocated; the record retires before
// the caller hears.
type mirrorRead struct {
	netbuf.Recycled
	m      *Mirror
	order  []int
	at     int
	lbn    int64
	blocks int
	meta   bool
	start  sim.Time
	done   func(*netbuf.Chain, error)
	onData func(*netbuf.Chain, error)
}

// issue sends the read to order[at].
func (r *mirrorRead) issue() {
	m := r.m
	a := m.arms[r.order[r.at]]
	a.stats.Reads++
	r.start = m.node.Eng.Now()
	a.ini.Read(r.lbn, r.blocks, r.meta, r.onData)
}

// arrived takes an arm's answer, failing over down the order on an error.
func (r *mirrorRead) arrived(data *netbuf.Chain, err error) {
	if r.Retired() {
		panic("storage: mirror read answered after retire")
	}
	m := r.m
	a := m.arms[r.order[r.at]]
	if err != nil {
		m.armError(a)
		if r.at+1 < len(r.order) {
			// Failover: the failed attempt's wait is recovery
			// latency attributable to the fault.
			trace.Fault(m.node.Eng, trace.LISCSI, 0)
			r.at++
			r.issue()
			return
		}
		data = nil
	} else {
		a.consecErrs = 0
		m.sample(a, r.start)
	}
	done := r.done
	*r = mirrorRead{Recycled: r.Recycled, m: m, order: r.order[:0], onData: r.onData}
	m.reads.Put(r)
	done(data, err)
}

// WriteAt implements Volume: fan clones out to every closed and resyncing
// arm, log dirty regions for ejected arms, and complete once every issued
// leg settles — success if at least one closed-arm write landed.
func (m *Mirror) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	bs := m.BlockSize()
	blocks := data.Len() / bs
	w := m.writes.Take()
	if w == nil {
		w = &mirrorWrite{m: m, legs: make([]mirrorLeg, len(m.arms))}
		for i := range w.legs {
			leg := &w.legs[i]
			leg.w, leg.a = w, m.arms[i]
			leg.onWritten = leg.written
		}
	}
	secondaries := 0
	for i := range w.legs {
		leg := &w.legs[i]
		switch leg.a.state {
		case ArmClosed:
			leg.role = legPrimary
			w.primaries++
		case ArmResync:
			leg.role = legSecondary
			secondaries++
		default:
			leg.role = legNone
			m.markDirty(leg.a, lbn, blocks)
		}
	}
	// One more than the legs: the guard keeps a leg that completes on the
	// spot from retiring the record while legs are still being issued.
	w.lbn, w.blocks, w.remaining, w.done = lbn, blocks, w.primaries+secondaries+1, done
	for i := range w.legs {
		if leg := &w.legs[i]; leg.role == legPrimary {
			leg.issue(data, meta)
		}
	}
	for i := range w.legs {
		if leg := &w.legs[i]; leg.role == legSecondary {
			// Write-through during resync keeps the arm converging; the
			// range is logged first so a failed or raced-with-copy leg is
			// re-copied, and cleared only when this write lands with no
			// copy in flight underneath it.
			m.markDirty(leg.a, lbn, blocks)
			leg.issue(data, meta)
		}
	}
	data.Release()
	w.settle()
}

// mirrorWrite is the recycled record of one write through the mirror: the
// range, how many closed arms it went to, the legs still to settle and what
// they reported, the caller's completion, and one leg per arm, each with its
// completion bound once. The record retires before the caller hears.
type mirrorWrite struct {
	netbuf.Recycled
	m         *Mirror
	lbn       int64
	blocks    int
	primaries int
	remaining int
	successes int
	firstErr  error
	done      func(error)
	legs      []mirrorLeg
}

// legRole is what one arm does in a write.
type legRole uint8

const (
	// legNone: the arm is out; the range joins its dirty-region log.
	legNone legRole = iota
	// legPrimary: a closed arm, whose success makes the write durable.
	legPrimary
	// legSecondary: a resyncing arm, written through to keep converging.
	legSecondary
)

// mirrorLeg is one arm's share of a write: its role, when it started (a
// primary's latency feeds the estimate), and the dirty generation when it was
// issued, up to which its landing clears the arm's log.
type mirrorLeg struct {
	w         *mirrorWrite
	a         *arm
	role      legRole
	start     sim.Time
	mark      uint64
	onWritten func(error)
}

// issue sends the leg's clone of data to its arm.
func (l *mirrorLeg) issue(data *netbuf.Chain, meta bool) {
	l.a.stats.Writes++
	l.start = l.w.m.node.Eng.Now()
	l.mark = l.w.m.gen
	c := data.Clone()
	c.SetOwner("storage.mirror")
	l.a.ini.Write(l.w.lbn, c, meta, l.onWritten)
}

// written settles one leg.
func (l *mirrorLeg) written(err error) {
	w, a := l.w, l.a
	m := w.m
	switch {
	case l.role == legPrimary && err != nil:
		if w.firstErr == nil {
			w.firstErr = err
		}
		// A write issued to another closed arm too may be acked off it,
		// so this arm's range may be stale: log it (R2) — reads avoid it
		// and recovery re-replicates it — then trip the breaker
		// accounting. A write with one closed arm owns the error.
		if w.primaries > 1 {
			m.markDirty(a, w.lbn, w.blocks)
		}
		m.armError(a)
	case err != nil:
		m.armError(a)
	default:
		if l.role == legPrimary {
			a.consecErrs = 0
			w.successes++
			m.sample(a, l.start)
		}
		a.landed(w.lbn, w.blocks, l.mark)
	}
	w.settle()
}

// settle counts one leg (or the issuing guard) in; after the last the write
// completes: success if any closed arm took it.
func (w *mirrorWrite) settle() {
	w.remaining--
	if w.remaining > 0 {
		return
	}
	err := w.firstErr
	if w.successes > 0 {
		err = nil
	}
	done := w.done
	w.retire()
	done(err)
}

// retire hands the record back to its mirror.
func (w *mirrorWrite) retire() {
	*w = mirrorWrite{Recycled: w.Recycled, m: w.m, legs: w.legs}
	w.m.writes.Put(w)
}

// Stats implements Volume.
func (m *Mirror) Stats() []ArmStats {
	out := make([]ArmStats, len(m.arms))
	for i, a := range m.arms {
		s := a.stats
		s.Name = a.name
		s.State = a.state
		s.DirtyBlocks = len(a.dirty)
		out[i] = s
	}
	return out
}
