package storage

import "ncache/internal/netbuf"

// DefaultRangeBlocks is the LBN-range granularity of target placement:
// 1024 file-system blocks (4 MB) per range.
const DefaultRangeBlocks = 1024

// Extent is one contiguous per-target run of a split block request.
type Extent struct {
	Target int
	LBN    int64
	Blocks int
}

// TargetMap places LBN ranges onto iSCSI targets round-robin: range i
// (DefaultRangeBlocks blocks from i·DefaultRangeBlocks) is served by target
// i mod n, so consecutive ranges alternate and a file system's blocks spread
// exactly evenly. Every target exports the full global geometry (the
// simulated disks are sparse), so a block's LBN is the same on every target
// and placement only selects which target serves it.
type TargetMap struct {
	targets int64
}

// NewTargetMap builds the placement for numTargets targets.
func NewTargetMap(numTargets int) *TargetMap {
	return &TargetMap{targets: int64(numTargets)}
}

// TargetOf maps one block to its serving target.
func (m *TargetMap) TargetOf(lbn int64) int {
	return int(lbn / DefaultRangeBlocks % m.targets)
}

// Split cuts a contiguous block run at range boundaries into per-target
// extents, in ascending LBN order: one extent per range touched (with two or
// more targets, adjacent ranges never share one). Placement is RAID0's
// striping with a range for the stripe unit and a target for the member.
func (m *TargetMap) Split(lbn int64, blocks int) []Extent {
	var out []Extent
	stripeRuns(int(m.targets), DefaultRangeBlocks, lbn, blocks, func(target int, _ int64, reqStart, run int) {
		out = append(out, Extent{Target: target, LBN: lbn + int64(reqStart), Blocks: run})
	})
	return out
}

// Sharded routes each request's extents to per-target volumes — the
// scale-out backend, where every member exports the full global geometry
// and placement only picks the session. Members are themselves volumes, so
// a sharded backend of mirrored pairs composes for free.
type Sharded struct {
	members []Volume
	targets *TargetMap
}

var _ Volume = (*Sharded)(nil)

// NewSharded builds the routing volume: members[t] serves what targets
// places on target t.
func NewSharded(members []Volume, targets *TargetMap) *Sharded {
	return &Sharded{members: members, targets: targets}
}

// BlockSize implements Volume.
func (s *Sharded) BlockSize() int { return s.members[0].BlockSize() }

// ReadAt implements Volume: scatter the extents across their members and
// reassemble the chains in LBN order once all complete.
func (s *Sharded) ReadAt(lbn int64, count int, meta bool, done func(*netbuf.Chain, error)) {
	exts := s.targets.Split(lbn, count)
	if len(exts) == 1 {
		s.members[exts[0].Target].ReadAt(lbn, count, meta, done)
		return
	}
	parts := make([]*netbuf.Chain, len(exts))
	remaining := len(exts)
	var firstErr error
	for i, ext := range exts {
		i, ext := i, ext
		s.members[ext.Target].ReadAt(ext.LBN, ext.Blocks, meta, func(data *netbuf.Chain, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			parts[i] = data
			remaining--
			if remaining > 0 {
				return
			}
			if firstErr != nil {
				for _, p := range parts {
					p.Release()
				}
				done(nil, firstErr)
				return
			}
			out := parts[0]
			for _, p := range parts[1:] {
				out.AppendChain(p)
			}
			done(out, nil)
		})
	}
}

// WriteAt implements Volume: slice the payload per extent (sub-chains, no
// copies) and fan out to the members.
func (s *Sharded) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	bs := s.BlockSize()
	exts := s.targets.Split(lbn, data.Len()/bs)
	if len(exts) == 1 {
		s.members[exts[0].Target].WriteAt(lbn, data, meta, done)
		return
	}
	remaining := len(exts)
	var firstErr error
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 {
			done(firstErr)
		}
	}
	off := 0
	for _, ext := range exts {
		n := ext.Blocks * bs
		sub, err := data.SubChain(off, n)
		if err != nil {
			finish(err)
			off += n
			continue
		}
		s.members[ext.Target].WriteAt(ext.LBN, sub, meta, finish)
		off += n
	}
	data.Release()
}

// Stats implements Volume by concatenating member stats.
func (s *Sharded) Stats() []ArmStats {
	var out []ArmStats
	for _, m := range s.members {
		out = append(out, m.Stats()...)
	}
	return out
}
