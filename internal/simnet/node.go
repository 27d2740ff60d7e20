// Package simnet models the hardware of the paper's testbed: nodes with a
// CPU, one or more gigabit NICs, and a store-and-forward switch connecting
// them. Data on the wire is real bytes in netbuf chains; time is virtual.
package simnet

import (
	"fmt"
	"slices"

	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
)

// Node is one machine: a CPU queueing resource, driver buffer pools, NICs,
// and the metric counters the experiments read. Its software runs one
// incarnation at a time: every timer and CPU completion posted through the
// node belongs to the incarnation that posted it, and Kill ends it (see
// Kill).
type Node struct {
	Name string
	Eng  *sim.Engine
	CPU  *sim.Resource
	// Cost calibrates this node's per-operation CPU charges.
	Cost CostProfile
	// The node's buffer pools, one per buffer geometry, are transient
	// driver memory: the steady-state transmit path allocates nothing. A
	// buffer that leaves on the wire stays on its pool's ledger until the
	// receiver's last Release returns it there; an extent, which leaves as
	// several windows, until the last of them is released. All are
	// unbounded.
	//
	// HdrPool holds header-sized buffers (DefaultHeadroom plus
	// HdrBufSize): the TCP and UDP headers, into whose headroom an
	// unfragmented frame's IP and Ethernet headers are pushed, a fragment's
	// IP header, the iSCSI BHS and its pad, the RPC record mark and an NFS
	// READ reply's XDR pad.
	HdrPool *netbuf.Pool
	// TxPool holds MTU-sized buffers: wire-segment copies of payload and RPC
	// message heads.
	TxPool *netbuf.Pool
	// BlkPool holds file-system-block-sized buffers (stamped junk blocks,
	// flush payloads).
	BlkPool *netbuf.Pool
	// extents holds one pool of headroomless extents per size, made on
	// first use (ExtentPool): the storage target lands a command's blocks
	// in one extent, a READ's sent as MTU-sized windows onto it, a WRITE's
	// gathered into it off the wire.
	extents map[int]*netbuf.Pool
	// Copies / NetStats / Reqs are this node's data-path counters.
	Copies metrics.Copies
	Reqs   metrics.Requests

	nics []*NIC
	// pools lists HdrPool, TxPool, BlkPool and the extent pools in the
	// order they were made: what Kill and the drain checks walk.
	pools []*netbuf.Pool
	// life is the running incarnation; inc counts the ones Kill ended.
	life *sim.Life
	inc  uint32
	// quiet counts the quiet frames booked toward this node's NICs;
	// handing is set while HandOver runs, which the CPU it uses calls.
	quiet   int
	handing bool
}

// Payload capacities of the node's pools beyond DefaultBufSize (TxPool).
const (
	// HdrBufSize fits the largest fixed-size header a node builds, the
	// 48-byte iSCSI BHS.
	HdrBufSize = 64
	// BlockBufSize matches the file-system block size every experiment
	// uses.
	BlockBufSize = 4096
)

// NewNode creates a node with one CPU and unbounded default buffer pools.
func NewNode(eng *sim.Engine, name string, cost CostProfile) *Node {
	n := &Node{
		Name:    name,
		Eng:     eng,
		CPU:     sim.NewResource(eng),
		Cost:    cost,
		HdrPool: netbuf.NewPool(name+".hdr", netbuf.DefaultHeadroom, HdrBufSize, 0),
		TxPool:  netbuf.NewPool(name+".tx", netbuf.DefaultHeadroom, netbuf.DefaultBufSize, 0),
		BlkPool: netbuf.NewPool(name+".blk", netbuf.DefaultHeadroom, BlockBufSize, 0),
		life:    &sim.Life{},
	}
	n.pools = []*netbuf.Pool{n.HdrPool, n.TxPool, n.BlkPool}
	n.CPU.SetHandOver(n.HandOver)
	return n
}

// HandOver hands the node's NICs every quiet frame whose delivery comes
// ahead of the running event, in the order of their delivery keys across
// the NICs, as the events that once delivered them would have. It runs
// before the CPU is used or read, before the wire counters are, and before
// TCP reads a connection, so no one sees the node without them: a frame whose delivery has passed cannot
// be overtaken, since a frame not yet booked reaches the egress after now.
func (n *Node) HandOver() {
	if n.quiet > 0 && !n.handing {
		n.handOver()
	}
}

// handOver is HandOver for a node with quiet frames booked.
func (n *Node) handOver() {
	n.handing = true
	bound := n.Eng.Running()
	for {
		var next *port
		var k sim.Key
		for _, nic := range n.nics {
			if p := nic.port; p.loud > 0 {
				if pk := p.key(0); next == nil || pk.Before(k) {
					next, k = p, pk
				}
			}
		}
		if next == nil || !k.Before(bound) {
			break
		}
		next.handHead()
	}
	n.handing = false
}

// NICs returns the node's attached interfaces.
func (n *Node) NICs() []*NIC { return n.nics }

// Pools returns the node's buffer pools. Callers must not mutate the slice.
func (n *Node) Pools() []*netbuf.Pool { return n.pools }

// ExtentPool returns the node's pool of size-byte extents, made and listed
// among Pools on the first call for that size.
func (n *Node) ExtentPool(size int) *netbuf.Pool {
	p := n.extents[size]
	if p == nil {
		if n.extents == nil {
			n.extents = make(map[int]*netbuf.Pool)
		}
		p = netbuf.NewPool(fmt.Sprintf("%s.ext%d", n.Name, size), 0, size, 0)
		n.extents[size] = p
		n.pools = append(n.pools, p)
	}
	return p
}

// Charge runs fn after the node's CPU has served d of work, unless the
// incarnation is killed first.
func (n *Node) Charge(d sim.Duration, fn func()) {
	at := n.CPU.Use(d, nil)
	if fn != nil {
		n.Eng.At(at, fn).For(n.life)
	}
}

// ChargeCopy performs the accounting for one physical copy of nbytes and
// runs fn once the CPU time has been served. The actual byte movement is the
// caller's business; this charges its simulated cost.
func (n *Node) ChargeCopy(nbytes int, fn func()) {
	n.Copies.AddPhysical(nbytes)
	n.Charge(n.Cost.CopyCost(nbytes), fn)
}

// Schedule is Engine.Schedule for the running incarnation: software on a
// node posts its timers here or at PostAt.
func (n *Node) Schedule(d sim.Duration, fn func()) sim.EventID {
	return n.Eng.Schedule(d, fn).For(n.life)
}

// PostAt is Engine.PostAt for the running incarnation.
func (n *Node) PostAt(t sim.Time, h sim.Handler, a, b any, k int64) sim.EventID {
	return n.Eng.PostAt(t, h, a, b, k).For(n.life)
}

// Cancel cancels an event posted through the node.
func (n *Node) Cancel(id sim.EventID) bool { return n.Eng.Cancel(id) }

// Incarnation counts the Kills the node has had.
func (n *Node) Incarnation() uint32 { return n.inc }

// Kill ends the running incarnation, as a crash does: its pending timers and
// CPU completions never run, the work queued on its CPU is dropped, the NICs
// drop every frame until a new stack hooks them, and every chain the node
// held, in any layer, is released. Frames already charged to a NIC still
// depart: their departures were booked when they were charged.
func (n *Node) Kill() {
	n.life.End()
	n.life = &sim.Life{}
	n.inc++
	// The chains it holds were built from its own pools and, as frames it
	// received, from the pools of the nodes on its fabric.
	pools := slices.Clone(n.pools)
	for _, nic := range n.nics {
		nic.rx = nil
		for _, m := range nic.net.nodes {
			if m != n {
				pools = append(pools, m.pools...)
			}
		}
	}
	for _, p := range pools {
		for _, h := range n.pools {
			p.ReleaseHeld(h)
		}
	}
	n.CPU.Abandon()
}

// NetTotals sums wire counters across all NICs.
func (n *Node) NetTotals() metrics.Net {
	n.HandOver()
	var t metrics.Net
	for _, nic := range n.nics {
		t.PacketsTx += nic.Stats.PacketsTx
		t.PacketsRx += nic.Stats.PacketsRx
		t.BytesTx += nic.Stats.BytesTx
		t.BytesRx += nic.Stats.BytesRx
	}
	return t
}

// String identifies the node.
func (n *Node) String() string { return fmt.Sprintf("node(%s)", n.Name) }
