package controlplane

import "ncache/internal/proto/eth"

// Registry is the control plane's placement authority: which front-end
// server owns each file handle. Placement is round-robin over the member
// set (Ring), which is fixed when the cluster is built; clients replicate it
// once from a member-set response.
type Registry struct {
	servers []eth.Addr
	ring    *Ring
}

// NewRegistry places all servers as members.
func NewRegistry(servers []eth.Addr) *Registry {
	g := &Registry{
		servers: append([]eth.Addr(nil), servers...),
		ring:    NewRing(len(servers)),
	}
	for i := range servers {
		g.ring.Add(i)
	}
	return g
}

// AddrOf returns a server's fabric address.
func (g *Registry) AddrOf(idx int) eth.Addr {
	if idx < 0 || idx >= len(g.servers) {
		return 0
	}
	return g.servers[idx]
}

// Members returns the member indices in ascending order.
func (g *Registry) Members() []int { return g.ring.Members() }
