package netbuf

// FreeList is the free list of a layer's recycled per-operation records (an
// in-flight frame, a file-system walk, a call at one layer of the RPC stack):
// the object that owns the records embeds one, and since records never leave
// their owner it needs no lock. It follows the chains' debug contract —
// recycle on release normally, poison and abandon under debug mode — so that
// rule is decided here and not once per record type.
type FreeList[T any] []*T

// Take removes and returns a retired record, or nil when there is none and
// the caller must allocate.
func (f *FreeList[T]) Take() *T {
	k := len(*f)
	if k == 0 {
		return nil
	}
	r := (*f)[k-1]
	(*f)[k-1] = nil
	*f = (*f)[:k-1]
	return r
}

// Put returns a blanked record to the list. In debug mode the record is
// abandoned instead and Put reports false: the caller marks it dead, so any
// later use of it panics instead of reaching the record's next tenant.
func (f *FreeList[T]) Put(r *T) bool {
	if debugMode {
		return false
	}
	*f = append(*f, r)
	return true
}
