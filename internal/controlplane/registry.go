package controlplane

import (
	"ncache/internal/lkey"
	"ncache/internal/proto/eth"
)

// Registry is the control plane's placement authority: which front-end
// server owns each file handle, at which epoch. Placement is consistent
// hashing over the active member set. Every change bumps the epoch;
// member-set responses carry it so client-side replicas and route caches
// built at an older epoch flush themselves.
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
