package netbuf

// maxSlab caps the records carved from one slab. Slabs double from one
// record up to maxSlab, so an owner that stays small over-allocates at most
// twice what it uses.
const maxSlab = 64

// Slab carves an owner's fresh records from shared arrays, as kmem_cache
// carves sk_buff heads: one allocation serves up to maxSlab records. The
// zero value is ready to use. A slab lives as long as any record carved from
// it, so carve only records that recycle on their owner's free list, which
// lives no shorter than they would; like FreeList it is unsynchronised and
// belongs to one owner.
type Slab[T any] struct {
	rest []T // the current slab's uncarved elements
	n    int // records in the current slab
}

// New returns a fresh zero record.
func (s *Slab[T]) New() *T { return &s.carve(1)[0] }

// carve returns a record of k zero elements capped at exactly k, so that an
// append can never reach a neighbour's, cutting a new slab of twice the
// records of the last (at most maxSlab) when the current one is used up.
// An owner passes one k per Slab.
func (s *Slab[T]) carve(k int) []T {
	if len(s.rest) < k {
		s.n = max(1, min(2*s.n, maxSlab))
		s.rest = make([]T, s.n*k)
	}
	r := s.rest[:k:k]
	s.rest = s.rest[k:]
	return r
}
