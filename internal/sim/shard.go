package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// This file implements the sharded (parallel) engine: a conservative
// parallel discrete-event simulation over per-shard event heaps,
// synchronized with epoch barriers whose width is derived from a lookahead
// matrix — the minimum cross-shard signal delay per (source, destination)
// shard pair, in practice each node's uplink latency into the simnet
// switch. Each shard is a full *Engine — same heap, free list, clock and
// context machinery as the sequential engine — so model code is oblivious
// to which mode it runs in.
//
// Protocol, per epoch:
//
//  1. Barrier admission: every cross-shard send staged during the previous
//     epoch is admitted into its destination heap in canonical
//     (at, srcShard, srcSeq) order — a total order independent of worker
//     interleaving. Each source's per-destination outbox is merged k-way
//     (one sorted run per source) and bulk-inserted: append at the heap
//     tail, then one sift pass.
//  2. The coordinator computes each shard's horizon
//     H_s = min over sources r of (E_r + la[r][s]), where E_r is the
//     earliest time shard r could possibly execute anything, this epoch or
//     any later one: the fixed point E_r = min(heapTop(r),
//     min over q of (E_q + la[q][r])) — a multi-source shortest path over
//     the lookahead graph seeded with heap tops. Heap tops alone are not
//     enough once self-pairs stop constraining a shard: an idle shard can
//     receive a staged event and answer later, so its earliest send is
//     bounded through the shards that can reach it. No event below H_s
//     can be affected by any cross-shard send, now or later, because a
//     send from shard r departs no earlier than E_r and arrives no sooner
//     than la[r][s] later — and E never retreats across barriers.
//     Self-pairs follow the same rule — a pair set to NoPost (shards that
//     never exchange events, including a node shard with itself: local
//     schedules never cross the fabric) drops out of the minimum, so a
//     shard may burn through its entire local event chain in one epoch.
//     Since the earliest shard's horizon strictly exceeds its next event
//     time, every epoch makes progress, and idle gaps are skipped in one
//     barrier: the horizon is anchored at the globally earliest pending
//     event, wherever it is.
//  3. A worker pool executes every runnable shard's events below its
//     horizon concurrently. A shard only ever touches its own state;
//     cross-shard sends go through PostTo, which appends to the sender's
//     per-destination outbox and never mutates a foreign heap. Only shards
//     with events below their horizon are dispatched, and at most
//     min(Workers, runnable, GOMAXPROCS) goroutines wake.
//  4. Barrier hooks (trace log merging) run single-threaded.
//
// Exclusive callbacks (RunExclusive) replace the old always-exclusive
// control shard: harness code that must touch many shards at once runs
// between epochs, with every shard quiescent; the coordinator caps the
// horizons at the callback's due time. Ordinary control-shard events run on
// the worker pool like any other shard's.
//
// Because admission order is canonical, horizons are a pure function of
// shard state at the barrier, and each shard is internally sequential, the
// schedule is a pure function of the initial state and the seeds:
// Workers=1 and Workers=N produce bit-identical runs, which the
// differential replay suite asserts.

// Config describes a sharded engine cluster.
type Config struct {
	// Workers is the number of goroutines executing runnable shards each
	// epoch. 1 is the sequential oracle (same sharded semantics, zero
	// concurrency); values above the shard count or GOMAXPROCS are clamped
	// at the first run — extra workers add wake latency without adding
	// parallelism.
	Workers int
	// Lookahead is the default minimum cross-shard delay for every
	// (src, dst) shard pair: PostTo with a shorter delay panics, and it
	// bounds the epoch width between pairs left at the default. Derive it
	// from the network's switch latency (the shortest path between nodes);
	// widen individual pairs with SetLookahead where the topology allows.
	Lookahead Duration
}

// NoPost marks a (src, dst) shard pair with no communication path: PostTo
// on the pair panics, and the pair places no bound on epoch horizons. Set
// it on a shard's self-pair (local schedules never cross the fabric) so the
// shard can run its whole local event chain inside one epoch.
const NoPost = Duration(math.MaxInt64 / 4)

// staged is a cross-shard event parked in the sending shard's
// per-destination outbox until the next barrier. srcSeq numbers the
// sender's PostTo calls; together with the send time and the sender's shard
// index it forms the deterministic admission key (at, srcShard, srcSeq).
type staged struct {
	at     Time
	srcSeq uint64
	ctx    any
	h      Handler
	a, b   any
	n      int64
}

// exclusive is one RunExclusive callback awaiting its barrier.
type exclusive struct {
	at  Time
	seq uint64
	fn  func()
	ctx any
}

// RunStats aggregates coordinator diagnostics for a sharded engine,
// accumulated across runs. Everything except BarrierNs and Wakes is a pure
// function of the simulated schedule, so it is bit-identical for any worker
// count — replay suites compare these fields too.
type RunStats struct {
	// Epochs counts barriers crossed (parallel execution rounds).
	Epochs uint64
	// Events counts events executed across all shards.
	Events uint64
	// StagedAdmits counts cross-shard events admitted at barriers.
	StagedAdmits uint64
	// ExclusiveRuns counts RunExclusive callbacks executed.
	ExclusiveRuns uint64
	// Wakes counts worker wake signals sent (host-dependent: clamped by
	// GOMAXPROCS).
	Wakes uint64
	// BarrierNs is wall-clock time spent in single-threaded barrier work
	// (admission, horizon computation, hooks). Host-dependent.
	BarrierNs int64
}

// runCursor walks one source's sorted outbox run during the k-way
// admission merge.
type runCursor struct {
	q   []staged
	src int32
	i   int
}

// coord synchronizes the shards of one sharded engine cluster.
type coord struct {
	shards    []*Engine
	lookahead Duration // default pair lookahead (the uniform floor)
	workers   int

	// pairLA holds SetLookahead overrides until the first run freezes them
	// into the flat matrix; keys are src<<32|dst.
	pairLA map[int64]Duration
	// la is the frozen S×S lookahead matrix, row-major by source shard.
	la []Duration
	// fastRows marks a matrix whose every row is constant off the
	// diagonal — true for switch topologies, where a node's minimum signal
	// delay to every peer is its uplink latency. Horizons then cost O(S)
	// per epoch (two-minimum trick) instead of O(S²).
	fastRows bool
	rowOff   []Duration // per-source off-diagonal lookahead (fastRows)
	rowDiag  []Duration // per-source self-pair lookahead (fastRows)

	hz   []Time  // per-shard horizons for the current epoch
	est  []Time  // per-shard earliest possible send time (fixed point)
	estP []bool  // scratch: shards finalized by the earliest() pass
	runq []int32 // shards with events below their horizon this epoch

	// exq holds pending RunExclusive callbacks (unordered; the coordinator
	// scans for the (at, seq) minimum — the queue stays tiny).
	exq   []exclusive
	exSeq uint64

	// limit aborts a run once the aggregate processed count exceeds it.
	limit uint64
	// stopReq is set by Stop from any shard; honored at the next barrier.
	stopReq atomic.Bool
	// next is the work-claiming cursor over runq within an epoch.
	next atomic.Int64
	// bound is the inclusive RunUntil bound for the current run.
	bound Time
	// onBarrier hooks run single-threaded at every barrier (and at run
	// end), in registration order. The trace subsystem merges its
	// per-shard span logs here.
	onBarrier []func()

	// persistent worker pool, started at the first run.
	workCh []chan struct{}
	doneCh chan int
	frozen bool
	closed bool

	mergeRuns []runCursor // admission scratch
	stats     RunStats
}

// NewSharded returns the control shard (shard 0) of a new sharded engine
// cluster. The control shard is an ordinary shard — its events run on the
// worker pool and must touch only its own state; harness code that needs
// the old exclusivity uses RunExclusive. Create model shards with NewShard;
// drive the whole cluster through the control handle's Run/RunUntil/RunFor.
func NewSharded(cfg Config) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Lookahead <= 0 {
		panic("sim: sharded engine needs a positive lookahead")
	}
	co := &coord{
		lookahead: cfg.Lookahead,
		workers:   cfg.Workers,
		pairLA:    make(map[int64]Duration),
	}
	ctl := &Engine{co: co, id: 0, name: "control"}
	co.shards = []*Engine{ctl}
	return ctl
}

// NewShard adds a model shard to the cluster and returns its engine
// handle. All shards must be created before the first run. The name
// appears in diagnostics only.
func (e *Engine) NewShard(name string) *Engine {
	co := e.co
	if co == nil {
		panic("sim: NewShard on a non-sharded engine")
	}
	if co.frozen {
		panic("sim: NewShard after the first run")
	}
	s := &Engine{co: co, id: len(co.shards), name: name, now: e.now}
	co.shards = append(co.shards, s)
	return s
}

// SetLookahead overrides the minimum cross-shard delay for the (src, dst)
// shard pair: PostTo from src to dst with a shorter delay panics, and the
// coordinator uses the pair bound when computing epoch horizons, so pairs
// separated by long links get proportionally wider epochs. Pass NoPost for
// pairs that never exchange events (a shard's self-pair in particular).
// Must be called before the first run.
func (e *Engine) SetLookahead(src, dst *Engine, d Duration) {
	co := e.co
	if co == nil {
		panic("sim: SetLookahead on a non-sharded engine")
	}
	if src.co != co || dst.co != co {
		panic("sim: SetLookahead across engine clusters")
	}
	if co.frozen {
		panic("sim: SetLookahead after the first run")
	}
	if d <= 0 {
		panic("sim: lookahead must be positive")
	}
	co.pairLA[int64(src.id)<<32|int64(dst.id)] = d
}

// PairLookahead reports the minimum PostTo delay from src to dst (the
// configured default unless SetLookahead overrode the pair).
func (e *Engine) PairLookahead(src, dst *Engine) Duration {
	if e.co == nil {
		return 0
	}
	return e.co.laFor(src.id, dst.id)
}

// laFor returns the lookahead bound for one shard pair, before or after
// the matrix freezes.
func (co *coord) laFor(src, dst int) Duration {
	if co.la != nil {
		return co.la[src*len(co.shards)+dst]
	}
	if d, ok := co.pairLA[int64(src)<<32|int64(dst)]; ok {
		return d
	}
	return co.lookahead
}

// ShardID returns this engine's shard index (0 for the control shard and
// for non-sharded engines).
func (e *Engine) ShardID() int { return e.id }

// ShardCount returns the number of shards in the cluster (1 for a
// non-sharded engine).
func (e *Engine) ShardCount() int {
	if e.co == nil {
		return 1
	}
	return len(e.co.shards)
}

// Sharded reports whether this engine is a shard of a parallel cluster.
func (e *Engine) Sharded() bool { return e.co != nil }

// Workers returns the configured worker count (1 for non-sharded). After
// the first run it reports the effective count — clamped to the shard
// count and GOMAXPROCS.
func (e *Engine) Workers() int {
	if e.co == nil {
		return 1
	}
	return e.co.workers
}

// Lookahead returns the cluster's default pair lookahead (0 for
// non-sharded).
func (e *Engine) Lookahead() Duration {
	if e.co == nil {
		return 0
	}
	return e.co.lookahead
}

// ShardStat is a per-shard diagnostic snapshot (see ShardStats).
type ShardStat struct {
	Name      string
	Now       Time
	Processed uint64
	Pending   int
}

// ShardStats snapshots every shard's clock and counters. Only coherent when
// no epoch is executing — from an OnBarrier hook or between runs. On a
// non-sharded engine it returns a single element describing the engine.
func (e *Engine) ShardStats() []ShardStat {
	if e.co == nil {
		return []ShardStat{{Name: e.name, Now: e.now, Processed: e.processed, Pending: len(e.events)}}
	}
	out := make([]ShardStat, len(e.co.shards))
	for i, s := range e.co.shards {
		out[i] = ShardStat{Name: s.name, Now: s.now, Processed: s.processed, Pending: len(s.events)}
	}
	return out
}

// Epochs returns how many barriers the cluster has crossed.
func (e *Engine) Epochs() uint64 {
	if e.co == nil {
		return 0
	}
	return e.co.stats.Epochs
}

// RunStats snapshots the coordinator's counters (see RunStats fields). On a
// non-sharded engine only Events is populated. Call between runs.
func (e *Engine) RunStats() RunStats {
	if e.co == nil {
		return RunStats{Events: e.processed}
	}
	st := e.co.stats
	for _, s := range e.co.shards {
		st.Events += s.processed
	}
	return st
}

// OnBarrier registers fn to run single-threaded at every epoch barrier and
// once more when a run completes. On a non-sharded engine it is a no-op
// (there are no barriers; callers apply their state eagerly instead).
func (e *Engine) OnBarrier(fn func()) {
	if e.co != nil {
		e.co.onBarrier = append(e.co.onBarrier, fn)
	}
}

// RunExclusive schedules fn to run after delay d with the whole cluster
// quiescent at an epoch barrier: no shard executes concurrently, so fn may
// read or mutate any shard's state and schedule events on any shard — the
// escape hatch for harness code (samplers, cross-shard assertions) that
// previously relied on the control shard's exclusivity. The coordinator
// caps every shard's horizon at the callback's due time, so fn observes no
// event at or beyond it; timing is otherwise quantized to barriers. Only
// the control shard may call it (from its events, from another exclusive
// callback, or between runs); on a non-sharded engine it degenerates to
// Schedule.
func (e *Engine) RunExclusive(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if e.co == nil {
		e.Schedule(d, fn)
		return
	}
	if e.id != 0 {
		panic("sim: RunExclusive from a model shard (only the control shard may request exclusivity)")
	}
	co := e.co
	co.exq = append(co.exq, exclusive{at: e.now.Add(d), seq: co.exSeq, fn: fn, ctx: e.cur})
	co.exSeq++
}

// PostTo schedules h(a, b, n) on shard dst after delay d, carrying the
// calling shard's current event context. It is the only legal way for one
// shard's event to reach another shard: the event lands in the sender's
// per-destination outbox and becomes visible at the next barrier, so d must
// be at least the pair's lookahead. The arguments ride in the pooled event
// (or the outbox entry), so a post with a handler bound ahead of time
// allocates nothing. On a non-sharded engine (or when dst == e) it
// degenerates to a local schedule with the source context.
func (e *Engine) PostTo(dst *Engine, d Duration, h Handler, a, b any, n int64) {
	if e.co == nil || dst == e {
		if d < 0 {
			d = 0
		}
		ev := dst.insertAt(dst.now.Add(d), nil, e.cur, nil).ev
		ev.h, ev.a, ev.b, ev.n = h, a, b, n
		return
	}
	if dst.co != e.co {
		panic("sim: PostTo across engine clusters")
	}
	if need := e.co.laFor(e.id, dst.id); d < need {
		if need >= NoPost {
			panic(fmt.Sprintf("sim: PostTo on a NoPost pair (%s -> %s)", e.name, dst.name))
		}
		panic(fmt.Sprintf("sim: PostTo delay %s below pair lookahead %s (%s -> %s)",
			d, need, e.name, dst.name))
	}
	for len(e.out) <= dst.id {
		e.out = append(e.out, nil)
	}
	e.out[dst.id] = append(e.out[dst.id], staged{
		at:     e.now.Add(d),
		srcSeq: e.postSeq,
		ctx:    e.cur,
		h:      h, a: a, b: b, n: n,
	})
	e.postSeq++
}

// insertAt is At with an explicit context (At captures e.cur; staged
// admissions must preserve the posting shard's context instead) and an
// optional resource whose job the event completes (see Resource.Use).
func (e *Engine) insertAt(t Time, fn func(), ctx any, res *Resource) EventID {
	if t < e.now {
		t = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.ctx = ctx
	ev.res = res
	e.seq++
	e.push(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// top returns the earliest pending event time on this shard's heap, or
// MaxTime when idle. Staged sends live in source outboxes until the
// barrier admits them, so between admission and the next epoch the heap is
// the complete pending set.
func (e *Engine) top() Time {
	if len(e.events) > 0 {
		return e.events[0].at
	}
	return MaxTime
}

// appendEvent places one admitted staged event at the heap tail (bulk
// insertion: the caller runs the sift pass after the whole batch lands).
func (e *Engine) appendEvent(s *staged) {
	t := s.at
	if t < e.now {
		// Horizon soundness guarantees every admitted event lands at or
		// after the shard's clock; tripping this means the lookahead
		// matrix or the earliest() fixed point is wrong.
		panic(fmt.Sprintf("sim: causality violation: admitted event at %s into shard %d past (now %s)", t, e.id, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.seq = e.seq
	ev.ctx = s.ctx
	ev.h, ev.a, ev.b, ev.n = s.h, s.a, s.b, s.n
	e.seq++
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
}

// sortRun orders one source's outbox run by (at, srcSeq). Appends already
// arrive in srcSeq order — delays vary per post, so a stable sort on the
// arrival time alone restores the canonical order.
func sortRun(q []staged) {
	slices.SortStableFunc(q, func(a, b staged) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		default:
			return 0
		}
	})
}

// admitStagedTo drains every source's outbox for dst into dst's heap in
// canonical (at, srcShard, srcSeq) order: each run is sorted (small,
// per-source), the runs are merged k-way, and the merged batch is
// bulk-inserted — appended at the heap tail, then one sift pass. Barrier
// phase only; no shard executes concurrently.
func (co *coord) admitStagedTo(dst *Engine) {
	runs := co.mergeRuns[:0]
	for _, src := range co.shards {
		if dst.id >= len(src.out) {
			continue
		}
		q := src.out[dst.id]
		if len(q) == 0 {
			continue
		}
		sortRun(q)
		runs = append(runs, runCursor{q: q, src: int32(src.id)})
	}
	if len(runs) == 0 {
		return
	}
	n := 0
	for i := range runs {
		n += len(runs[i].q)
	}
	co.stats.StagedAdmits += uint64(n)
	start := len(dst.events)
	if len(runs) == 1 {
		for i := range runs[0].q {
			dst.appendEvent(&runs[0].q[i])
		}
	} else {
		// K-way merge: runs sit in ascending source order, so on ties the
		// first candidate (lowest srcShard) wins — the stagedLess order.
		for left := n; left > 0; left-- {
			best := -1
			for i := range runs {
				r := &runs[i]
				if r.i >= len(r.q) {
					continue
				}
				if best < 0 || r.q[r.i].at < runs[best].q[runs[best].i].at {
					best = i
				}
			}
			r := &runs[best]
			dst.appendEvent(&r.q[r.i])
			r.i++
		}
	}
	for i := start; i < len(dst.events); i++ {
		dst.siftUp(i)
	}
	for i := range runs {
		q := runs[i].q
		clear(q) // drop the references the entries carried
		co.shards[runs[i].src].out[dst.id] = q[:0]
	}
	co.mergeRuns = runs[:0]
}

// runShard executes this shard's events with at < horizon and at <= bound,
// leaving the clock at the last executed event. Local schedules join the
// same pass; cross-shard sends stage for the next epoch.
func (e *Engine) runShard(horizon, bound Time) {
	for len(e.events) > 0 {
		top := e.events[0]
		if top.at >= horizon || top.at > bound {
			return
		}
		popped := e.pop()
		e.now = popped.at
		e.processed++
		e.fire(popped)
	}
}

// addSat is saturating time-plus-duration (idle shards sit at MaxTime).
func addSat(t Time, d Duration) Time {
	if t >= MaxTime-Time(d) {
		return MaxTime
	}
	return t + Time(d)
}

// peekExclusive returns the index of the earliest pending exclusive
// callback by (at, seq), or -1.
func (co *coord) peekExclusive() int {
	best := -1
	for i := range co.exq {
		if best < 0 || co.exq[i].at < co.exq[best].at ||
			(co.exq[i].at == co.exq[best].at && co.exq[i].seq < co.exq[best].seq) {
			best = i
		}
	}
	return best
}

// earliest computes each shard's earliest possible future send time: the
// fixed point E_r = min(top(r), min over q of (E_q + la[q][r])). Heap tops
// alone are NOT a safe source bound once self-pairs stop constraining a
// shard: an idle shard (top = MaxTime) can receive a staged event this
// epoch and answer next epoch, so its true earliest send is bounded by the
// senders that can reach it, transitively. E is exactly the multi-source
// shortest-path distance over the lookahead graph seeded with heap tops,
// computed Dijkstra-style (all lookaheads are positive): repeatedly
// finalize the unfinalized shard with the smallest estimate and relax its
// outgoing row. O(S²) per barrier; ties break on shard id, so est is a
// pure function of (tops, matrix) — worker-count invariant.
func (co *coord) earliest() {
	shards := co.shards
	S := len(shards)
	for i, s := range shards {
		co.est[i] = s.top()
		co.estP[i] = false
	}
	for range shards {
		u, best := -1, MaxTime
		for i := range shards {
			if !co.estP[i] && co.est[i] < best {
				best, u = co.est[i], i
			}
		}
		if u < 0 {
			break
		}
		co.estP[u] = true
		if co.fastRows {
			v := addSat(best, co.rowOff[u])
			for i := range co.est {
				if i != u && !co.estP[i] && v < co.est[i] {
					co.est[i] = v
				}
			}
			continue
		}
		for i := range co.est {
			if i != u && !co.estP[i] {
				if v := addSat(best, co.la[u*S+i]); v < co.est[i] {
					co.est[i] = v
				}
			}
		}
	}
}

// computeHorizons fills co.hz with each shard's conservative execution
// bound H_s = min over sources r of (E_r + la[r][s]) — where E_r is the
// earliest() fixed point, not the raw heap top — capped at the next
// exclusive callback's due time, and collects the runnable shards (events
// below horizon and bound) into co.runq. Any event that ever reaches s, in
// this epoch or a later one, was sent by some r executing at ≥ E_r and
// paid ≥ la[r][s], so it lands at ≥ H_s; and E never retreats across
// barriers, so horizons only advance. For fastRows matrices the horizon
// step is O(S) via the two-minimum trick: the off-diagonal contribution
// min over r != s of (E_r + rowOff[r]) is min1 — or min2 exactly when s
// itself holds min1.
func (co *coord) computeHorizons(tx, bound Time) {
	shards := co.shards
	co.runq = co.runq[:0]
	co.earliest()
	if co.fastRows {
		min1, min2 := MaxTime, MaxTime
		arg1 := -1
		for i := range shards {
			v := addSat(co.est[i], co.rowOff[i])
			if v < min1 {
				min2, min1, arg1 = min1, v, i
			} else if v < min2 {
				min2 = v
			}
		}
		for i, s := range shards {
			h := min1
			if i == arg1 {
				h = min2
			}
			if d := addSat(co.est[i], co.rowDiag[i]); d < h {
				h = d
			}
			if h > tx {
				h = tx
			}
			co.hz[i] = h
			if t := s.top(); t < h && t <= bound {
				co.runq = append(co.runq, int32(i))
			}
		}
		return
	}
	S := len(shards)
	for si := range shards {
		h := MaxTime
		for r := range shards {
			if v := addSat(co.est[r], co.la[r*S+si]); v < h {
				h = v
			}
		}
		if h > tx {
			h = tx
		}
		co.hz[si] = h
		if t := shards[si].top(); t < h && t <= bound {
			co.runq = append(co.runq, int32(si))
		}
	}
}

// freeze finalizes the cluster at the first run: clamps the worker count,
// sizes the outboxes, builds the lookahead matrix (detecting the
// constant-row fast path) and starts the persistent worker pool.
func (co *coord) freeze() {
	if co.frozen {
		return
	}
	co.frozen = true
	S := len(co.shards)
	n := co.workers
	if g := runtime.GOMAXPROCS(0); n > g {
		n = g
	}
	if n > S {
		n = S
	}
	if n < 1 {
		n = 1
	}
	co.workers = n
	for _, s := range co.shards {
		for len(s.out) < S {
			s.out = append(s.out, nil)
		}
	}
	co.la = make([]Duration, S*S)
	for i := range co.la {
		co.la[i] = co.lookahead
	}
	for k, d := range co.pairLA { // det: commutative (distinct matrix cells)
		co.la[int(k>>32)*S+int(k&0xffffffff)] = d
	}
	co.pairLA = nil
	co.rowOff = make([]Duration, S)
	co.rowDiag = make([]Duration, S)
	co.fastRows = true
	for r := 0; r < S && co.fastRows; r++ {
		off := Duration(-1)
		for s := 0; s < S; s++ {
			if s == r {
				continue
			}
			v := co.la[r*S+s]
			if off < 0 {
				off = v
			} else if v != off {
				co.fastRows = false
				break
			}
		}
		if off < 0 {
			off = co.lookahead // single-shard cluster
		}
		co.rowOff[r] = off
		co.rowDiag[r] = co.la[r*S+r]
	}
	co.hz = make([]Time, S)
	co.est = make([]Time, S)
	co.estP = make([]bool, S)
	co.runq = make([]int32, 0, S)
	co.workCh = make([]chan struct{}, n)
	co.doneCh = make(chan int, n)
	for w := 1; w < n; w++ {
		co.workCh[w] = make(chan struct{})
		go func(w int) {
			for range co.workCh[w] {
				co.drainShards()
				co.doneCh <- w
			}
		}(w)
	}
}

// runEpochs is the coordinator loop shared by Run and RunUntil on a
// sharded cluster: execute epochs until no event at or before bound
// remains (or Stop, or the event limit trips). It returns with every
// shard's clock advanced to exactly bound when bound is finite.
func (co *coord) runEpochs(bound Time) error {
	co.stopReq.Store(false)
	co.freeze()
	for {
		t0 := time.Now()
		for _, s := range co.shards {
			co.admitStagedTo(s)
		}
		m := MaxTime
		for _, s := range co.shards {
			if t := s.top(); t < m {
				m = t
			}
		}
		tx := Time(MaxTime)
		xi := co.peekExclusive()
		if xi >= 0 {
			tx = co.exq[xi].at
		}
		if (m == MaxTime && tx == MaxTime) || (m > bound && tx > bound) {
			co.stats.BarrierNs += time.Since(t0).Nanoseconds()
			break
		}
		if tx <= m {
			// Exclusive callback: every shard is quiescent and no event
			// below tx is pending anywhere, so fn may touch any shard.
			ex := co.exq[xi]
			co.exq[xi] = exclusive{}
			co.exq = append(co.exq[:xi], co.exq[xi+1:]...)
			ctl := co.shards[0]
			if ctl.now < ex.at {
				ctl.now = ex.at
			}
			co.stats.ExclusiveRuns++
			co.stats.BarrierNs += time.Since(t0).Nanoseconds()
			ctl.cur = ex.ctx
			ex.fn()
			ctl.cur = nil
			if co.stopReq.Load() {
				return nil
			}
			continue
		}
		co.computeHorizons(tx, bound)
		co.stats.Epochs++
		co.bound = bound
		co.stats.BarrierNs += time.Since(t0).Nanoseconds()
		if n := len(co.runq); n > 0 {
			// Wake only as many workers as there are runnable shards: the
			// calling goroutine is worker 0, extras park on their channel.
			w := co.workers
			if w > n {
				w = n
			}
			if w > 1 {
				co.next.Store(0)
				co.stats.Wakes += uint64(w - 1)
				for i := 1; i < w; i++ {
					co.workCh[i] <- struct{}{}
				}
				co.drainShards()
				for i := 1; i < w; i++ {
					<-co.doneCh
				}
			} else {
				for _, si := range co.runq {
					co.shards[si].runShard(co.hz[si], bound)
				}
			}
		}
		t1 := time.Now()
		for _, fn := range co.onBarrier {
			fn()
		}
		co.stats.BarrierNs += time.Since(t1).Nanoseconds()
		if co.limit > 0 {
			var total uint64
			for _, s := range co.shards {
				total += s.processed
			}
			if total > co.limit {
				return fmt.Errorf("sim: event limit %d exceeded at t=%s", co.limit, m)
			}
		}
		if co.stopReq.Load() {
			return nil
		}
	}
	// Final barrier flush so observers see a complete log even when the
	// run ends without crossing another epoch boundary.
	for _, fn := range co.onBarrier {
		fn()
	}
	if !co.stopReq.Load() {
		// Synchronize every shard's clock at the quiescent point: bound for
		// RunUntil, the globally latest event for Run — the same value a
		// sequential engine's Now() reports after draining. Without this,
		// wide epochs leave shard clocks arbitrarily far apart, and harness
		// code scheduling fresh work between runs (relative to one shard's
		// now) would post into another shard's past.
		sync := bound
		if sync == MaxTime {
			sync = 0
			for _, s := range co.shards {
				if s.now > sync {
					sync = s.now
				}
			}
		}
		for _, s := range co.shards {
			if s.now < sync {
				s.now = sync
			}
		}
	}
	return nil
}

// drainShards claims runnable shards off the work cursor and runs each to
// its horizon.
func (co *coord) drainShards() {
	for {
		i := int(co.next.Add(1)) - 1
		if i >= len(co.runq) {
			return
		}
		si := co.runq[i]
		co.shards[si].runShard(co.hz[si], co.bound)
	}
}

// Close releases the cluster's worker goroutines. Safe to call on any
// shard handle, more than once, and on non-sharded engines (no-op).
func (e *Engine) Close() {
	co := e.co
	if co == nil || !co.frozen || co.closed {
		if co != nil {
			co.closed = true
		}
		return
	}
	co.closed = true
	for w := 1; w < co.workers; w++ {
		close(co.workCh[w])
	}
}
