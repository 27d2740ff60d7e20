// Package controlplane shards the pass-through tier: file-handle →
// front-end-server placement dealt round-robin over the fixed member set,
// which every client computes locally (the same arithmetic places LBN ranges
// on iSCSI targets, in package storage), and a small control-plane service
// whose one job is the remap protocol that keeps FHO→LBN re-indexing coherent
// when the server flushing a block is not the server caching it: remaps,
// named by (server, seq), fan out as invalidations, are acknowledged
// individually, and are retried idempotently under frame loss. It is one
// ONC RPC program (program.go) carried by package sunrpc, whose datagram
// client does every resend.
package controlplane

import (
	"encoding/binary"
	"slices"

	"ncache/internal/lkey"
)

// Ring places keys on a fixed member set by arithmetic: key k is owned by the
// (k mod n)'th of the n members in ascending order, so consecutive keys go
// round the members in turn. Membership is fixed when the cluster is built,
// so nothing needs the minimal movement a consistent-hash ring would buy, and
// sequential keys (inode numbers, LBN range indices) come out exactly even.
type Ring struct {
	members []int // ascending, distinct
}

// NewRing creates an empty ring with room for capacity members.
func NewRing(capacity int) *Ring {
	return &Ring{members: make([]int, 0, capacity)}
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(member int) {
	if i, found := slices.BinarySearch(r.members, member); !found {
		r.members = slices.Insert(r.members, i, member)
	}
}

// Lookup maps a key to its owning member. Returns -1 on an empty ring.
func (r *Ring) Lookup(key uint64) int {
	if len(r.members) == 0 {
		return -1
	}
	return r.members[key%uint64(len(r.members))]
}

// LookupFH maps a file handle to its owning member. The key is the handle's
// inode number (bytes 0–3): the file system allocates inodes sequentially, so
// files are dealt to the members in turn. An inode stride that is a multiple
// of the member count would put every file on one member.
func (r *Ring) LookupFH(fh lkey.FH) int {
	return r.Lookup(uint64(binary.BigEndian.Uint32(fh[0:4])))
}
