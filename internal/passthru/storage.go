package passthru

import (
	"fmt"

	"ncache/internal/blockdev"
	"ncache/internal/iscsi"
	"ncache/internal/proto/eth"
	"ncache/internal/proto/ipv4"
	"ncache/internal/proto/tcp"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/storage"
)

// The storage node of the testbed (the paper's PIII-1GHz node): four IDE
// disks in a RAID-0 with 64 KB stripes, on a gigabit port.
const (
	storageDisks       = 4
	storageStripeUnit  = 16 // blocks
	storageDiskBlockSz = 4096
)

// StorageServer is the iSCSI storage node.
type StorageServer struct {
	Node   *simnet.Node
	Target *iscsi.Target
	Array  *storage.RAID0
	Addr   eth.Addr
	TCP    *tcp.Transport
}

// NewStorageServer builds the storage node and attaches it to the fabric at
// addr. name labels the node and diskPrefix its disks ("storage"/"disk" on
// the single-target testbed, "storage1"/"s1.disk" etc. on scale-out targets
// and mirror arms), so fault sites and metrics stay distinguishable.
func NewStorageServer(eng *sim.Engine, nw *simnet.Network, name, diskPrefix string, addr eth.Addr, blocksPerDisk int64, cost simnet.CostProfile) (*StorageServer, error) {
	node := simnet.NewNode(eng, name, cost)
	if _, err := nw.Attach(node, addr, simnet.Gbps); err != nil {
		return nil, fmt.Errorf("storage attach: %w", err)
	}
	ip := ipv4.NewStack(node)
	tcpT := tcp.NewTransport(ip)

	disks := make([]*blockdev.MemDisk, storageDisks)
	for i := range disks {
		disks[i] = blockdev.NewMemDisk(eng, fmt.Sprintf("%s%d", diskPrefix, i), blockdev.Geometry{
			BlockSize: storageDiskBlockSz,
			NumBlocks: blocksPerDisk,
		}, blockdev.IDE2000())
	}
	array, err := storage.NewRAID0(disks, storageStripeUnit)
	if err != nil {
		return nil, err
	}
	target, err := iscsi.NewTarget(node, tcpT, array)
	if err != nil {
		return nil, err
	}
	return &StorageServer{Node: node, Target: target, Array: array, Addr: addr, TCP: tcpT}, nil
}
