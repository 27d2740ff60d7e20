package netbuf

import "fmt"

// Recycled is the mark every recycled record embeds; FreeList sets it on Put
// and clears it on Take. A retire that blanks its record must keep the mark.
type Recycled struct{ retired bool }

// Retired reports whether the record is retired: a continuation that fires
// for a retired record is a late completion.
func (m *Recycled) Retired() bool { return m.retired }

func (m *Recycled) mark() *Recycled { return m }

// FreeList is the free list of a layer's recycled per-operation records (an
// in-flight frame, a file-system walk, a call at one layer of the RPC stack).
// The object that owns the records embeds one, and since records never leave
// their owner it needs no lock. It decides the record lifecycle for every
// record type, as the chains' rule does for chains: a second retire panics in
// either mode, and debug mode abandons a retired record instead of recycling
// it, so a later use cannot reach the record's next tenant.
type FreeList[R interface{ mark() *Recycled }] []R

// Take removes and returns a retired record, unmarked, or nil when there is
// none and the caller must allocate.
func (f *FreeList[R]) Take() R {
	var r R
	if k := len(*f); k > 0 {
		r = (*f)[k-1]
		clear((*f)[k-1:])
		*f = (*f)[:k-1]
		r.mark().retired = false
	}
	return r
}

// Put retires a record: marked, it goes back on the list (debug mode
// abandons it). Retiring a retired record panics.
func (f *FreeList[R]) Put(r R) {
	m := r.mark()
	if m.retired {
		panic(fmt.Sprintf("netbuf: %T retired twice", r))
	}
	m.retired = true
	if !debugMode {
		*f = append(*f, r)
	}
}
