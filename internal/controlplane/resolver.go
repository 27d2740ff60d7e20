package controlplane

import "ncache/internal/lkey"

// ResolverStats counts client-side routing.
type ResolverStats struct {
	Lookups uint64
	// LocalHits counts lookups answered by the client-local placement
	// replica: every one of them, with no control-plane round trip.
	LocalHits uint64
	// CacheHits and Retries stay zero. Inert shims: they counted the deleted
	// route cache and member-set fetch, and benchmarks/ncmark still reads
	// them (DESIGN.md §11).
	CacheHits uint64
	Retries   uint64
}

// Resolver is a client host's placement replica. Placement is a pure
// function of the server count and the key, and the member set is fixed when
// the cluster is built, so the replica is built from the count alone and
// never goes stale: routing is arithmetic at the client, and the control
// plane never hears of it.
type Resolver struct {
	ring  *Ring
	Stats ResolverStats
}

// NewResolver builds the replica of an n-server tier.
func NewResolver(n int) *Resolver {
	r := &Resolver{ring: NewRing(n)}
	for m := 0; m < n; m++ {
		r.ring.Add(m)
	}
	return r
}

// Resolve answers the index of the server owning fh.
func (r *Resolver) Resolve(fh lkey.FH) int {
	r.Stats.Lookups++
	r.Stats.LocalHits++
	return r.ring.LookupFH(fh)
}
