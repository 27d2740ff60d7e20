package controlplane

import (
	"fmt"

	"ncache/internal/lkey"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/udp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// ResolverStats counts client-side routing activity.
type ResolverStats struct {
	Lookups   uint64
	CacheHits uint64
	Retries   uint64
	Failures  uint64
	// LocalHits counts lookups answered by the client-local ring replica —
	// no control-plane round trip, no control CPU.
	LocalHits uint64
	// MemberFetches counts completed member-set fetches (one per client,
	// not one per lookup).
	MemberFetches uint64
}

// membersWait is one member-set fetch: the request that resends it, and the
// sequence number its response must echo.
type membersWait struct {
	request
	r   *Resolver
	seq uint64
}

// bootEntry is one lookup parked behind the member-set fetch.
type bootEntry struct {
	fh   lkey.FH
	done func(server int, err error)
}

// Resolver is a client host's routing authority replica. On first use it
// fetches the control plane's member set once and rebuilds the placement
// locally (placement is a pure function of the member set and the key, so
// the replica answers bit-identically);
// from then on FH lookups are client-local and the control-plane CPU sees
// one message per client instead of one per cold route. That is the only
// routing path: while there is no replica, lookups wait for the fetch, and
// if the fetch is abandoned they fail and the next lookup starts a fresh one
// — an outage costs errors only while it lasts. The member set is fixed when
// the cluster is built, so a fetched replica never goes stale.
type Resolver struct {
	node *simnet.Node
	ep   *endpoint
	// path estimates the round trip to the control plane.
	path sim.RTT

	cache   map[lkey.FH]int
	nextSeq uint64

	// ring is the local placement replica (nil until fetched), members the
	// fetch in flight (nil when none), bootQ the lookups parked behind it.
	ring    *Ring
	members *membersWait
	bootQ   []bootEntry

	Stats ResolverStats
}

// NewResolver creates a resolver on a client host: a datagram socket on the
// host's UDP transport, talking to the control plane at cp.
func NewResolver(node *simnet.Node, t *udp.Transport, local, cp eth.Addr) *Resolver {
	r := &Resolver{node: node, cache: make(map[lkey.FH]int)}
	r.ep = openEndpoint(t, local, cp, r.handle)
	return r
}

// Resolve answers the index of the server owning fh: from the route cache,
// the local ring replica, or once the member set has been fetched. done may
// fire synchronously on cache or ring hits.
func (r *Resolver) Resolve(fh lkey.FH, done func(server int, err error)) {
	r.Stats.Lookups++
	r.answer(fh, done)
}

// answer routes one lookup without re-counting it (parked lookups re-enter
// here once the member set lands).
func (r *Resolver) answer(fh lkey.FH, done func(server int, err error)) {
	if server, ok := r.cache[fh]; ok {
		r.Stats.CacheHits++
		done(server, nil)
		return
	}
	if r.ring == nil {
		// Cold replica: park the lookup behind one member-set fetch.
		r.bootQ = append(r.bootQ, bootEntry{fh: fh, done: done})
		if r.members == nil {
			r.nextSeq++
			r.members = &membersWait{r: r, seq: r.nextSeq}
			r.members.start(r.node.Eng, r.members, &r.path, 2*DefaultRetryMax)
		}
		return
	}
	server := r.ring.LookupFH(fh)
	if server < 0 {
		r.Stats.Failures++
		done(-1, fmt.Errorf("controlplane: no server for fh=%x", fh))
		return
	}
	r.cache[fh] = server
	r.Stats.LocalHits++
	done(server, nil)
}

func (w *membersWait) transmit(again bool) {
	if again {
		w.r.Stats.Retries++
	}
	// A send that fails is a datagram that never arrived: the loop resends.
	_ = w.r.ep.send(Msg{Type: MsgMembers, Seq: w.seq})
}

// abandon fails the lookups parked behind the fetch rather than hanging
// their callers. The next Resolve starts a fresh fetch.
func (w *membersWait) abandon() {
	r := w.r
	r.members = nil
	q := r.bootQ
	r.bootQ = nil
	for _, e := range q {
		r.Stats.Failures++
		e.done(-1, fmt.Errorf("controlplane: lookup fh=%x: no member set after %d tries", e.fh, w.tries))
	}
}

// handle consumes one control-plane response: the member set, installed as
// the local ring replica, after which the parked lookups drain through it.
func (r *Resolver) handle(m Msg) {
	if m.Type != MsgMembersResp || r.members == nil || m.Seq != r.members.seq {
		return
	}
	r.members.settle()
	r.members = nil
	r.Stats.MemberFetches++
	r.ring = NewRing(len(m.LBNs))
	for _, packed := range m.LBNs {
		r.ring.Add(int(uint64(packed) >> 32))
	}
	q := r.bootQ
	r.bootQ = nil
	for _, e := range q {
		r.answer(e.fh, e.done)
	}
}
