package storage

import "ncache/internal/netbuf"

// SingleArm adapts one connected initiator to the Volume surface with no
// behavioral change: every single-target config routes through it (retries
// stay inside the initiator). Its counters are commands issued to the arm.
type SingleArm struct {
	name string
	ini  Initiator
	// free is the free list of command records (see armIO).
	free netbuf.FreeList[armIO]

	reads, writes, errors uint64
}

// armIO is the recycled record of one command through the arm: the caller's
// completion — read's or write's — with arrived and written bound once, when
// the record is first allocated. It retires before the caller hears
// (poisoned and abandoned in netbuf debug mode).
type armIO struct {
	s         *SingleArm
	dead      bool // retired in debug mode
	read      func(*netbuf.Chain, error)
	write     func(error)
	onData    func(*netbuf.Chain, error)
	onWritten func(error)
}

var _ Volume = (*SingleArm)(nil)

// NewSingleArm wraps a connected initiator. name labels the arm in stats.
func NewSingleArm(name string, ini Initiator) *SingleArm {
	return &SingleArm{name: name, ini: ini}
}

// BlockSize implements Volume.
func (s *SingleArm) BlockSize() int { return s.ini.Geometry().BlockSize }

// io takes a blank command record off the free list.
func (s *SingleArm) io() *armIO {
	if r := s.free.Take(); r != nil {
		return r
	}
	r := &armIO{s: s}
	r.onData, r.onWritten = r.arrived, r.written
	return r
}

// retire hands the record back to the arm and counts a failed command.
func (r *armIO) retire(err error) {
	if r.dead {
		panic("storage: arm command retired twice")
	}
	s := r.s
	r.read, r.write = nil, nil
	r.dead = !s.free.Put(r)
	if err != nil {
		s.errors++
	}
}

// ReadAt implements Volume by pure delegation.
func (s *SingleArm) ReadAt(lbn int64, blocks int, meta bool, done func(*netbuf.Chain, error)) {
	s.reads++
	r := s.io()
	r.read = done
	s.ini.Read(lbn, blocks, meta, r.onData)
}

// arrived passes a read's answer up.
func (r *armIO) arrived(data *netbuf.Chain, err error) {
	done := r.read
	r.retire(err)
	done(data, err)
}

// WriteAt implements Volume by pure delegation.
func (s *SingleArm) WriteAt(lbn int64, data *netbuf.Chain, meta bool, done func(error)) {
	s.writes++
	r := s.io()
	r.write = done
	s.ini.Write(lbn, data, meta, r.onWritten)
}

// written passes a write's outcome up.
func (r *armIO) written(err error) {
	done := r.write
	r.retire(err)
	done(err)
}

// Stats implements Volume.
func (s *SingleArm) Stats() []ArmStats {
	return []ArmStats{{
		Name: s.name, State: ArmClosed,
		Reads: s.reads, Writes: s.writes, Errors: s.errors,
	}}
}
