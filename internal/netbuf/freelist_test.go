package netbuf

import (
	"fmt"
	"strings"
	"testing"
)

// rec is a record as the layers declare one.
type rec struct{ Recycled }

// TestFreeListContract: in both modes a second Put panics naming the record's
// type, and Take hands back an unmarked record; debug mode never recycles.
func TestFreeListContract(t *testing.T) {
	was := DebugEnabled()
	defer SetDebug(was)
	for _, debug := range []bool{false, true} {
		t.Run(fmt.Sprintf("debug=%v", debug), func(t *testing.T) {
			SetDebug(debug)
			var f FreeList[*rec]
			if f.Take() != nil {
				t.Fatal("Take on an empty list returned a record")
			}
			r := &rec{}
			f.Put(r)
			if !r.Retired() {
				t.Fatal("Put left the record unmarked")
			}
			func() {
				defer func() {
					p := recover()
					if s, _ := p.(string); !strings.Contains(s, "*netbuf.rec retired twice") {
						t.Errorf("second Put: recovered %v, want a panic naming *netbuf.rec and \"retired twice\"", p)
					}
				}()
				f.Put(r)
			}()
			got := f.Take()
			if debug {
				if got != nil || len(f) != 0 {
					t.Fatalf("debug mode recycled: Take = %p, %d left on the list", got, len(f))
				}
				return
			}
			if got != r || got.Retired() || len(f) != 0 {
				t.Fatalf("Take = %p (retired %v, %d left), want %p unmarked and an empty list", got, got.Retired(), len(f), r)
			}
			f.Put(got) // retired again after a Take: no panic
			if len(f) != 1 {
				t.Fatalf("list holds %d records after Take and Put, want 1", len(f))
			}
		})
	}
}
