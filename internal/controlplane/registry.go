package controlplane

import (
	"ncache/internal/lkey"
	"ncache/internal/proto/eth"
)

// Registry is the control plane's placement authority: which front-end
// server owns each file handle, at which epoch. Placement is consistent
// hashing over the active member set. Every change bumps the epoch; lookup
// responses carry it so client-side route caches built at an older epoch
// flush themselves.
type Registry struct {
	servers []eth.Addr
	ring    *Ring
	epoch   uint64
}

// NewRegistry places all servers as active members at epoch 1.
func NewRegistry(servers []eth.Addr) *Registry {
	g := &Registry{
		servers: append([]eth.Addr(nil), servers...),
		ring:    NewRing(DefaultVNodes),
		epoch:   1,
	}
	for i := range servers {
		g.ring.Add(i)
	}
	return g
}

// Epoch returns the current placement epoch.
func (g *Registry) Epoch() uint64 { return g.epoch }

// AddrOf returns a server's fabric address.
func (g *Registry) AddrOf(idx int) eth.Addr {
	if idx < 0 || idx >= len(g.servers) {
		return 0
	}
	return g.servers[idx]
}

// Members returns the active member indices in ascending order.
func (g *Registry) Members() []int { return g.ring.Members() }

// VNodes reports the ring's virtual-node count (what a client replica must
// use to reproduce the placement exactly).
func (g *Registry) VNodes() int { return g.ring.VNodes() }

// ServerFor maps a file handle to its owning server index on the hash ring.
// Returns -1 when no server is active.
func (g *Registry) ServerFor(fh lkey.FH) int { return g.ring.LookupFH(fh) }

// SetActive replaces the active member set (topology change: servers joining
// or leaving the placement). Bumps the epoch.
func (g *Registry) SetActive(members []int) {
	for _, m := range g.ring.Members() {
		g.ring.Remove(m)
	}
	for _, m := range members {
		if m >= 0 && m < len(g.servers) {
			g.ring.Add(m)
		}
	}
	g.epoch++
}

// DefaultRangeBlocks is the LBN-range granularity of target placement:
// 1024 file-system blocks (4 MB) per range.
const DefaultRangeBlocks = 1024

// Extent is one contiguous per-target run of a split block request.
type Extent struct {
	Target int
	LBN    int64
	Blocks int
}

// TargetMap places LBN ranges onto iSCSI targets by consistent hashing of
// the range index. Every target exports the full global geometry (the
// simulated disks are sparse), so a block's LBN is the same on every target
// and placement only selects which target serves it.
type TargetMap struct {
	numTargets  int
	rangeBlocks int64
	ring        *Ring
}

// NewTargetMap builds the placement for numTargets targets.
func NewTargetMap(numTargets int, rangeBlocks int64) *TargetMap {
	if numTargets <= 0 {
		numTargets = 1
	}
	if rangeBlocks <= 0 {
		rangeBlocks = DefaultRangeBlocks
	}
	m := &TargetMap{numTargets: numTargets, rangeBlocks: rangeBlocks, ring: NewRing(DefaultVNodes)}
	for t := 0; t < numTargets; t++ {
		m.ring.Add(t)
	}
	return m
}

// TargetOf maps one block to its serving target.
func (m *TargetMap) TargetOf(lbn int64) int {
	if m == nil || m.numTargets == 1 {
		return 0
	}
	return m.ring.Lookup(uint64(lbn / m.rangeBlocks))
}

// Split cuts a contiguous block run at range boundaries into per-target
// extents, in ascending LBN order.
func (m *TargetMap) Split(lbn int64, blocks int) []Extent {
	if m == nil || m.numTargets == 1 {
		return []Extent{{Target: 0, LBN: lbn, Blocks: blocks}}
	}
	var out []Extent
	for blocks > 0 {
		boundary := (lbn/m.rangeBlocks + 1) * m.rangeBlocks
		n := blocks
		if int64(n) > boundary-lbn {
			n = int(boundary - lbn)
		}
		t := m.TargetOf(lbn)
		// Merge with the previous extent when adjacent ranges land on the
		// same target.
		if len(out) > 0 && out[len(out)-1].Target == t &&
			out[len(out)-1].LBN+int64(out[len(out)-1].Blocks) == lbn {
			out[len(out)-1].Blocks += n
		} else {
			out = append(out, Extent{Target: t, LBN: lbn, Blocks: n})
		}
		lbn += int64(n)
		blocks -= n
	}
	return out
}
