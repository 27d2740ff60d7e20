package passthru

import (
	"ncache/internal/blockdev"
	"ncache/internal/controlplane"
	"ncache/internal/nfs"
	"ncache/internal/storage"
)

// shardedDirect presents the sharded targets' arrays as one zero-time setup
// device: every target exports the full global geometry (the disks are
// sparse), so mkfs and prefill write each block only to the target that
// will serve it.
type shardedDirect struct {
	arrays []blockdev.DirectAccess
	tm     *storage.TargetMap
}

func (d *shardedDirect) Geometry() blockdev.Geometry { return d.arrays[0].Geometry() }

func (d *shardedDirect) PeekBlock(lbn int64) []byte {
	return d.arrays[d.tm.TargetOf(lbn)].PeekBlock(lbn)
}

func (d *shardedDirect) PokeBlock(lbn int64, data []byte) {
	d.arrays[d.tm.TargetOf(lbn)].PokeBlock(lbn, data)
}

// mirroredDirect is one target's zero-time setup device: peeks come from
// the primary arm, pokes land on every arm so the replicas start (and stay,
// under setup writes) identical.
type mirroredDirect struct {
	arms []*StorageServer
}

func (d *mirroredDirect) Geometry() blockdev.Geometry { return d.arms[0].Array.Geometry() }

func (d *mirroredDirect) PeekBlock(lbn int64) []byte { return d.arms[0].Array.PeekBlock(lbn) }

func (d *mirroredDirect) PokeBlock(lbn int64, data []byte) {
	for _, a := range d.arms {
		a.Array.PokeBlock(lbn, data)
	}
}

// DirectAccess returns the cluster's zero-time setup device: the target's
// arm fan-out, routed by placement on a scale-out cluster.
func (c *Cluster) DirectAccess() blockdev.DirectAccess {
	perTarget := make([]blockdev.DirectAccess, len(c.StorageArms))
	for t, arms := range c.StorageArms {
		perTarget[t] = &mirroredDirect{arms: arms}
	}
	if len(perTarget) == 1 {
		return perTarget[0]
	}
	return &shardedDirect{arrays: perTarget, tm: c.Targets}
}

// SetSynthesize installs a content function on every target's array (see
// storage.RAID0.SetSynthesize).
func (c *Cluster) SetSynthesize(fn func(arrayLBN int64, dst []byte)) {
	for _, s := range c.Storages {
		s.Array.SetSynthesize(fn)
	}
}

// ScaleClient is one client host's routed view of the cluster: an NFS
// client per front-end server plus the placement replica that picks which
// one serves each file handle.
type ScaleClient struct {
	Host *ClientHost
	// NFS[i] talks to server i (its first NIC).
	NFS []*nfs.Client
	// Resolver places a file handle on a server by arithmetic over the
	// cluster's server count.
	Resolver *controlplane.Resolver
}

// NewScaleClient builds the routed client set on one host. On a testbed with
// faults installed its clients retransmit like every other NFS client.
func (c *Cluster) NewScaleClient(host *ClientHost) (*ScaleClient, error) {
	sc := &ScaleClient{Host: host, Resolver: controlplane.NewResolver(len(c.Apps))}
	for _, app := range c.Apps {
		nc, err := host.NewNFSClient(app.Node.NICs()[0].Addr)
		if err != nil {
			return nil, err
		}
		c.armRetransmit(nc)
		sc.NFS = append(sc.NFS, nc)
	}
	c.scaleClients = append(c.scaleClients, sc)
	return sc, nil
}

// Route answers the NFS client owning fh. done fires before Route returns
// and never with an error; the callback shape is what
// workload.RouteFn and benchmarks/ncmark call.
func (sc *ScaleClient) Route(fh nfs.FH, done func(*nfs.Client, error)) {
	done(sc.NFS[sc.Resolver.Resolve(fh)], nil)
}
