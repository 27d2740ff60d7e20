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

// This file holds the explicit-ownership machinery: every Buf reference and
// every Chain has exactly one owner at a time, ownership transfers are
// explicit (Retain/Release), and releases recycle buffers and chain structs
// through free lists instead of leaving them to the garbage collector.
// Debug mode trades the recycling for poisoning: double frees and
// use-after-free panic with the owner tag instead of silently corrupting a
// recycled object, pools can report exactly who leaked what, and a header
// push into shared backing panics (Chain.PushFront).
//
// The chain free list is process-global and therefore shared by clusters
// that run on different goroutines (parallel subtests); chainMu guards it.
// Chain identity never affects simulated results (a recycled chain is
// indistinguishable from a fresh one), so the free-list order being
// interleaving-dependent is harmless. Buffers need no such list: a pool's
// recycle on the pool, which belongs to one node, and a released standalone
// buffer goes to the collector.

// debugMode switches the substrate from recycle-on-release to
// poison-on-release. See SetDebug.
var debugMode bool

// SetDebug enables (or disables) ownership debugging. With debugging on:
//   - releasing an already-released Buf or Chain panics with its owner tag
//     instead of incrementing a double-free counter;
//   - released chains and records are poisoned, never recycled, so a stale
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
// no pool to charge them to (standalone buffers, chains).
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
// join a free list — the rule chains and records follow, for the flat
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

// chainFree recycles Chain structs (and their grown window slices); chainMu
// guards it.
var (
	chainMu   sync.Mutex
	chainFree []*Chain
)

// getChain returns an empty chain, reusing a released one when possible.
func getChain() *Chain {
	chainMu.Lock()
	if n := len(chainFree); n > 0 && !debugMode {
		c := chainFree[n-1]
		chainFree[n-1] = nil
		chainFree = chainFree[:n-1]
		chainMu.Unlock()
		c.freed = false
		return c
	}
	chainMu.Unlock()
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
	chainMu.Lock()
	chainFree = append(chainFree, c)
	chainMu.Unlock()
}
