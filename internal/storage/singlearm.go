package storage

import "ncache/internal/netbuf"

// SingleArm adapts one connected initiator to the Volume surface with no
// behavioral change: every single-target config routes through it (retries
// stay inside the initiator). Its counters are commands issued to the arm.
type SingleArm struct {
	name string
	ini  Initiator
	// free is the free list of read records (see armRead).
	free netbuf.FreeList[armRead]

	reads, writes, errors uint64
}

// armRead is the recycled record of one read through the arm: the caller's
// completion, and arrived bound once, when the record is first allocated. It
// retires before the caller hears (poisoned and abandoned in netbuf debug
// mode).
type armRead struct {
	s      *SingleArm
	dead   bool // retired in debug mode
	done   func(*netbuf.Chain, error)
	onData func(*netbuf.Chain, error)
}

var _ Volume = (*SingleArm)(nil)

// NewSingleArm wraps a connected initiator. name labels the arm in stats.
func NewSingleArm(name string, ini Initiator) *SingleArm {
	return &SingleArm{name: name, ini: ini}
}

// BlockSize implements Volume.
func (s *SingleArm) BlockSize() int { return s.ini.Geometry().BlockSize }

// ReadAt implements Volume by pure delegation.
func (s *SingleArm) ReadAt(lbn int64, blocks int, meta bool, done func(*netbuf.Chain, error)) {
	s.reads++
	r := s.free.Take()
	if r == nil {
		r = &armRead{s: s}
		r.onData = r.arrived
	}
	r.done = done
	s.ini.Read(lbn, blocks, meta, r.onData)
}

// arrived counts a failed command and passes the answer up.
func (r *armRead) arrived(data *netbuf.Chain, err error) {
	if r.dead {
		panic("storage: arm read retired twice")
	}
	s, done := r.s, r.done
	r.done = nil
	r.dead = !s.free.Put(r)
	if err != nil {
		s.errors++
	}
	done(data, err)
}

// WriteAt implements Volume by pure delegation.
func (s *SingleArm) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	s.writes++
	s.ini.Write(lbn, data, meta, func(err error) {
		if err != nil {
			s.errors++
		}
		done(err)
	})
}

// Stats implements Volume.
func (s *SingleArm) Stats() []ArmStats {
	return []ArmStats{{
		Name: s.name, State: ArmClosed,
		Reads: s.reads, Writes: s.writes, Errors: s.errors,
	}}
}
