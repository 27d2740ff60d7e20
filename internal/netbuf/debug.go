package netbuf

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// init honors NCACHE_NETBUF_DEBUG=1: CI runs the test suite once with
// ownership debugging forced on, so double frees and leaks panic with owner
// tags instead of only ticking counters.
func init() {
	if os.Getenv("NCACHE_NETBUF_DEBUG") == "1" {
		debugMode = true
	}
}

// This file holds the explicit-ownership machinery behind the PR 4 contract:
// every Buf and Chain has exactly one owner at a time, ownership transfers
// are explicit (Retain/Release), and releases recycle descriptors through
// package-local free lists instead of leaving them to the garbage collector.
// Debug mode trades the recycling for poisoning: double frees and
// use-after-free panic with the owner tag instead of silently corrupting a
// recycled descriptor, and pools can report exactly who leaked what.
//
// The descriptor and chain free lists are process-global and therefore
// shared by clusters that run on different goroutines (parallel subtests);
// descMu guards them. Descriptor identity never affects simulated results
// (a recycled descriptor is indistinguishable from a fresh one), so the
// free-list order being interleaving-dependent is harmless.

// debugMode switches the substrate from recycle-on-release to
// poison-on-release. See SetDebug.
var debugMode bool

// SetDebug enables (or disables) ownership debugging. With debugging on:
//   - releasing an already-released Buf or Chain panics with its owner tag
//     instead of incrementing a double-free counter;
//   - released descriptors are poisoned, never recycled, so a stale
//     reference trips the panic deterministically;
//   - pools track every outstanding buffer so LeakReport / MustBeDrained
//     can name the owners of leaked buffers.
//
// Debug mode changes no simulated behavior, only failure reporting; tests
// and CI run the suite once with it enabled.
func SetDebug(on bool) { debugMode = on }

// DebugEnabled reports whether ownership debugging is on.
func DebugEnabled() bool { return debugMode }

// globalDoubleFrees counts double releases of buffers and chains that have
// no pool to charge them to (standalone buffers, clone descriptors, chains).
var globalDoubleFrees atomic.Uint64

// GlobalDoubleFrees returns the process-wide count of double releases not
// attributable to a pool. Tests assert it stays zero.
func GlobalDoubleFrees() uint64 { return globalDoubleFrees.Load() }

// ResetGlobalDoubleFrees clears the process-wide double-free counter
// (test isolation hook).
func ResetGlobalDoubleFrees() { globalDoubleFrees.Store(0) }

// recordDoubleFree books a Release of an already-free buffer: a panic with
// the owner tag in debug mode, a counter otherwise.
func recordDoubleFree(b *Buf) {
	if debugMode {
		panic(fmt.Sprintf("netbuf: double free of %s (owner %q)", b, b.owner))
	}
	if p := b.pool; p != nil {
		p.doubleFrees++
		return
	}
	globalDoubleFrees.Add(1)
}

// recordChainDoubleFree books a Release of an already-released chain.
func recordChainDoubleFree(c *Chain) {
	if debugMode {
		panic(fmt.Sprintf("netbuf: double free of %s", c))
	}
	globalDoubleFrees.Add(1)
}

// poisonByte fills payload memory retired in debug mode. 0xDB is no valid
// lkey marker, XDR length or block of synthesized content, so whatever
// reads a retired payload fails its own integrity check.
const poisonByte = 0xDB

// Recycle reports whether a payload buffer whose owner is done with it may
// join a free list — the rule descriptors and chains follow, for the flat
// buffers other packages recycle (iSCSI staging buffers, WAL payloads,
// buffer-cache pages). In debug mode it may not: the buffer is poisoned and
// abandoned to the collector, so a reader that kept it past the hand-back
// sees poison instead of the next owner's bytes.
func Recycle(p []byte) bool {
	if !debugMode {
		return true
	}
	p = p[:cap(p)]
	for i := range p {
		p[i] = poisonByte
	}
	return false
}

// descFree recycles Buf descriptors (clone descriptors and standalone
// buffers whose backing is gone). Disabled in debug mode so released
// descriptors stay poisoned.
var (
	descMu   sync.Mutex
	descFree []*Buf
)

// getDesc returns a zeroed descriptor, reusing a released one when possible.
func getDesc() *Buf {
	descMu.Lock()
	if n := len(descFree); n > 0 && !debugMode {
		b := descFree[n-1]
		descFree[n-1] = nil
		descFree = descFree[:n-1]
		descMu.Unlock()
		b.freed = false
		return b
	}
	descMu.Unlock()
	return &Buf{}
}

// putDesc retires a descriptor whose refcount reached zero. In debug mode it
// is poisoned and abandoned to the collector; otherwise it joins the free
// list for the next Clone or New.
func putDesc(b *Buf) {
	b.freed = true
	b.backing = nil
	b.shared = nil
	b.pool = nil
	b.head, b.tail = 0, 0
	b.refs = 0
	if debugMode {
		return
	}
	b.owner = ""
	descMu.Lock()
	descFree = append(descFree, b)
	descMu.Unlock()
}

// chainFree recycles Chain structs (and their grown descriptor slices).
var chainFree []*Chain

// getChain returns an empty chain, reusing a released one when possible.
func getChain() *Chain {
	descMu.Lock()
	if n := len(chainFree); n > 0 && !debugMode {
		c := chainFree[n-1]
		chainFree[n-1] = nil
		chainFree = chainFree[:n-1]
		descMu.Unlock()
		c.freed = false
		return c
	}
	descMu.Unlock()
	return &Chain{}
}

// putChain retires a released chain. In debug mode it stays poisoned so a
// second Release or further use panics instead of corrupting a reused chain.
func putChain(c *Chain) {
	c.freed = true
	c.ckValid = false
	if debugMode {
		return
	}
	descMu.Lock()
	chainFree = append(chainFree, c)
	descMu.Unlock()
}
