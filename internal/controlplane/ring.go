// Package controlplane shards the pass-through tier: a registry of
// file-handle → front-end-server placement built on consistent hashing (the
// ring also places LBN ranges on iSCSI targets, in package storage), a small
// control-plane service that hands clients the member set to replicate that
// placement from, over UDP (a datagram protocol: every request is resent by
// one application-level loop, request.go), and the remap protocol that keeps
// FHO→LBN re-indexing coherent when the server flushing a block is not the
// server caching it: remap messages, named by (server, seq), fan out as
// invalidations, are acknowledged individually, and are retried idempotently
// under frame loss.
package controlplane

import (
	"encoding/binary"
	"sort"

	"ncache/internal/lkey"
)

// DefaultVNodes is the virtual-node count per ring member. 64 points per
// member keeps the max/min shard-load ratio comfortably under 2 for the
// member counts the testbed sweeps (1..8 servers, a handful of targets).
const DefaultVNodes = 64

// mix64 is the splitmix64 finalizer: a fixed, seedless avalanche function,
// so placement is a pure function of (member set, key) — identical across
// processes and runs, never dependent on map order or runtime randomness.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member int
}

// Ring is a deterministic consistent-hash ring over integer member IDs.
type Ring struct {
	vnodes  int
	points  []ringPoint
	members map[int]bool
}

// NewRing creates an empty ring; vnodes <= 0 selects DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[int]bool)}
}

// pointHash places one (member, replica) virtual node on the circle.
func pointHash(member, replica int) uint64 {
	return mix64(uint64(member)<<32 | uint64(uint32(replica)))
}

// Add inserts a member's virtual nodes. Adding an existing member is a no-op.
func (r *Ring) Add(member int) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: pointHash(member, v), member: member})
	}
	r.sortPoints()
}

// sortPoints orders the circle; ties (hash collisions) break by member ID so
// the ring is a pure function of the member set.
func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// VNodes reports the virtual-node count per member — replicas built with
// the same count (and member set) are point-for-point identical rings.
func (r *Ring) VNodes() int { return r.vnodes }

// Members returns the member IDs in ascending order.
func (r *Ring) Members() []int {
	out := make([]int, 0, len(r.members))
	for m := range r.members { // det: sorted
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// Lookup maps a pre-hashed key to the owning member: the first virtual node
// clockwise from the key's position. Returns -1 on an empty ring.
func (r *Ring) Lookup(key uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	h := mix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// LookupFH maps a file handle to its owning member.
func (r *Ring) LookupFH(fh lkey.FH) int {
	return r.Lookup(binary.BigEndian.Uint64(fh[:]))
}
