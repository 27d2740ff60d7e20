package controlplane

import (
	"fmt"

	"ncache/internal/lkey"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
	"ncache/internal/simnet"
)

// ResolverStats counts client-side routing activity.
type ResolverStats struct {
	Lookups     uint64
	CacheHits   uint64
	Retries     uint64
	Failures    uint64
	EpochFlush  uint64
	StaleEpochs uint64
	// LocalHits counts lookups answered by the client-local ring replica —
	// no control-plane round trip, no control CPU.
	LocalHits uint64
	// MemberFetches counts completed member-set bootstraps (one per epoch
	// the client observes, not one per lookup).
	MemberFetches uint64
}

// routeEntry is one cached FH→server binding, tagged with the epoch it was
// learned at.
type routeEntry struct {
	server int
	addr   eth.Addr
	epoch  uint64
}

// lookupWait is one in-flight lookup and its waiters.
type lookupWait struct {
	fh    lkey.FH
	seq   uint64
	tries int
	done  []func(server int, addr eth.Addr, err error)
}

// membersWait is the in-flight member-set bootstrap and its retry state.
type membersWait struct {
	seq   uint64
	tries int
}

// bootEntry is one lookup parked behind the member-set bootstrap.
type bootEntry struct {
	fh   lkey.FH
	done func(server int, addr eth.Addr, err error)
}

// Resolver is a client host's routing authority replica. On first use it
// bootstraps the control plane's member set once and rebuilds the
// consistent-hash ring locally (placement is a pure function of the member
// set, virtual-node count and key, so the replica answers bit-identically);
// from then on FH lookups are client-local and the control-plane CPU sees
// one message per client per placement epoch instead of one per cold
// route. Per-FH lookups remain the fallback whenever there is no replica —
// the member set does not fit one message, or the bootstrap exhausted its
// retries and no response has arrived since. Responses carry
// the placement epoch; any response newer than the cache flushes both the
// route cache and the ring replica, so stale placements die on the next
// answer rather than lingering.
type Resolver struct {
	node *simnet.Node
	ep   *endpoint

	cache    map[lkey.FH]routeEntry
	epoch    uint64
	inflight map[lkey.FH]*lookupWait
	nextSeq  uint64

	// ring/addrs is the local placement replica (nil until bootstrapped).
	// tooManyMembers records that the control plane could not send its
	// member set, bootFailed that a bootstrap went unanswered: either way
	// there is no replica to wait for, and lookups go out per handle.
	ring           *Ring
	addrs          map[int]eth.Addr
	tooManyMembers bool
	bootFailed     bool
	members        *membersWait
	bootQ          []bootEntry

	Stats ResolverStats
}

// NewResolver creates a resolver on a client host: a datagram socket on the
// host's UDP transport, talking to the control plane at cp.
func NewResolver(node *simnet.Node, t *udp.Transport, local, cp eth.Addr) *Resolver {
	r := &Resolver{
		node:     node,
		cache:    make(map[lkey.FH]routeEntry),
		inflight: make(map[lkey.FH]*lookupWait),
	}
	r.ep = openEndpoint(t, local, cp, r.handle)
	return r
}

// Epoch reports the highest placement epoch the resolver has seen.
func (r *Resolver) Epoch() uint64 { return r.epoch }

// Resolve answers the owning (server index, address) for fh: from the
// route cache, the local ring replica, or the control plane. done may fire
// synchronously on cache or ring hits.
func (r *Resolver) Resolve(fh lkey.FH, done func(server int, addr eth.Addr, err error)) {
	r.Stats.Lookups++
	r.answer(fh, done)
}

// answer routes one lookup without re-counting it (bootstrap-parked
// lookups re-enter here once the member set lands).
func (r *Resolver) answer(fh lkey.FH, done func(server int, addr eth.Addr, err error)) {
	if e, ok := r.cache[fh]; ok {
		r.Stats.CacheHits++
		done(e.server, e.addr, nil)
		return
	}
	if r.ring != nil {
		if idx := r.ring.LookupFH(fh); idx >= 0 {
			e := routeEntry{server: idx, addr: r.addrs[idx], epoch: r.epoch}
			r.cache[fh] = e
			r.Stats.LocalHits++
			done(e.server, e.addr, nil)
			return
		}
	}
	if r.ring == nil && !r.tooManyMembers && !r.bootFailed {
		// Cold replica: park the lookup behind one member-set fetch.
		r.bootQ = append(r.bootQ, bootEntry{fh: fh, done: done})
		r.fetchMembers()
		return
	}
	r.lookupRemote(fh, done)
}

// lookupRemote asks the control plane for one handle's owner (the fallback
// while there is no replica).
func (r *Resolver) lookupRemote(fh lkey.FH, done func(server int, addr eth.Addr, err error)) {
	if w, ok := r.inflight[fh]; ok {
		w.done = append(w.done, done)
		return
	}
	r.nextSeq++
	w := &lookupWait{fh: fh, seq: r.nextSeq, done: []func(int, eth.Addr, error){done}}
	r.inflight[fh] = w
	r.transmit(w)
}

// fetchMembers starts (or joins) the member-set bootstrap.
func (r *Resolver) fetchMembers() {
	if r.members != nil {
		return
	}
	r.nextSeq++
	w := &membersWait{seq: r.nextSeq}
	r.members = w
	r.transmitMembers(w)
}

// transmitMembers sends one member-set request and arms its retry timer;
// exhausting the tries falls back to per-FH lookups rather than failing the
// parked lookups (the per-FH path has its own retry budget).
func (r *Resolver) transmitMembers(w *membersWait) {
	if r.members != w {
		return
	}
	if w.tries >= DefaultRetryMax {
		r.bootFallback(w)
		return
	}
	if w.tries > 0 {
		r.Stats.Retries++
	}
	w.tries++
	if err := r.ep.send(Msg{Type: MsgMembers, Seq: w.seq}); err != nil {
		r.bootFallback(w)
		return
	}
	r.node.Eng.Schedule(DefaultRetryRTO, func() { r.transmitMembers(w) })
}

// bootFallback abandons the bootstrap and drains the parked lookups through
// the per-FH path. The next response to arrive clears bootFailed, so an
// outage costs per-FH round trips only while it lasts.
func (r *Resolver) bootFallback(w *membersWait) {
	if r.members != w {
		return
	}
	r.members = nil
	r.bootFailed = true
	q := r.bootQ
	r.bootQ = nil
	for _, e := range q {
		r.lookupRemote(e.fh, e.done)
	}
}

// transmit sends one lookup and arms its retry timer (bounded; a lookup
// that exhausts its tries fails rather than hanging its waiters).
func (r *Resolver) transmit(w *lookupWait) {
	if _, live := r.inflight[w.fh]; !live || r.inflight[w.fh] != w {
		return
	}
	if w.tries >= DefaultRetryMax {
		r.fail(w, fmt.Errorf("controlplane: lookup fh=%x: no response after %d tries", w.fh, w.tries))
		return
	}
	if w.tries > 0 {
		r.Stats.Retries++
	}
	w.tries++
	if err := r.ep.send(Msg{Type: MsgLookupFH, FH: w.fh, Seq: w.seq}); err != nil {
		r.fail(w, err)
		return
	}
	r.node.Eng.Schedule(DefaultRetryRTO, func() { r.transmit(w) })
}

// fail completes a lookup's waiters with an error.
func (r *Resolver) fail(w *lookupWait, err error) {
	if r.inflight[w.fh] == w {
		delete(r.inflight, w.fh)
	}
	r.Stats.Failures++
	for _, d := range w.done {
		d(-1, 0, err)
	}
}

// handle consumes one control-plane response.
func (r *Resolver) handle(m Msg) {
	switch m.Type {
	case MsgLookupFHResp:
		r.handleLookup(m)
	case MsgMembersResp:
		r.handleMembers(m)
	}
}

// advanceEpoch applies the epoch discipline to one response: a response
// from a newer placement epoch means every cached route — and the ring
// replica — may be stale: flush and relearn. Responses from older epochs
// (reordered datagrams) report false and must not install state over newer
// answers.
func (r *Resolver) advanceEpoch(epoch uint64) bool {
	if epoch > r.epoch {
		if len(r.cache) > 0 {
			r.Stats.EpochFlush++
		}
		r.cache = make(map[lkey.FH]routeEntry)
		r.ring, r.addrs, r.tooManyMembers, r.bootFailed = nil, nil, false, false
		r.epoch = epoch
	} else if epoch < r.epoch {
		r.Stats.StaleEpochs++
		return false
	}
	return true
}

// handleMembers installs the member-set response as the local ring replica
// and drains the lookups parked behind the bootstrap.
func (r *Resolver) handleMembers(m Msg) {
	if r.members == nil || m.Seq != r.members.seq {
		return
	}
	if !r.advanceEpoch(m.Epoch) {
		return
	}
	r.members = nil
	r.Stats.MemberFetches++
	if m.Status&StatusTooManyMembers != 0 {
		// No replica to be had at this epoch: use per-FH lookups until
		// the next one.
		r.tooManyMembers = true
	} else {
		ring := NewRing(int(m.LBN))
		addrs := make(map[int]eth.Addr, len(m.LBNs))
		for _, packed := range m.LBNs {
			idx := int(uint64(packed) >> 32)
			ring.Add(idx)
			addrs[idx] = eth.Addr(uint32(uint64(packed)))
		}
		r.ring, r.addrs = ring, addrs
	}
	q := r.bootQ
	r.bootQ = nil
	for _, e := range q {
		r.answer(e.fh, e.done)
	}
}

// handleLookup consumes one per-FH lookup response.
func (r *Resolver) handleLookup(m Msg) {
	if !r.advanceEpoch(m.Epoch) {
		return
	}
	// The control plane answers again: the next cold lookup may bootstrap.
	r.bootFailed = false
	w, ok := r.inflight[m.FH]
	if !ok {
		return
	}
	delete(r.inflight, m.FH)
	if m.Status != 0 {
		r.Stats.Failures++
		for _, d := range w.done {
			d(-1, 0, fmt.Errorf("controlplane: no server for fh=%x", m.FH))
		}
		return
	}
	e := routeEntry{server: int(m.Server), addr: m.Addr, epoch: m.Epoch}
	r.cache[m.FH] = e
	for _, d := range w.done {
		d(e.server, e.addr, nil)
	}
}

// Invalidate drops one cached route (callers that see a misroute can force
// a relearn without waiting for an epoch bump). A misroute also means the
// ring replica answered wrong, so it is dropped too — the refetch lands on
// the registry's current epoch.
func (r *Resolver) Invalidate(fh lkey.FH) {
	delete(r.cache, fh)
	r.ring, r.addrs = nil, nil
}
