package netbuf

import (
	"fmt"
	"math/bits"
	"os"
	"sync"
)

// init honors NCACHE_NETBUF_DEBUG=1: CI runs the test suite once with
// ownership debugging forced on, so released objects are poisoned instead of
// recycled and leaks are named by owner tag.
func init() {
	if os.Getenv("NCACHE_NETBUF_DEBUG") == "1" {
		debugMode = true
	}
}

// This file holds the explicit-ownership machinery: every Buf reference and
// every Chain has exactly one owner at a time, ownership transfers are
// explicit (Retain/Release), and releases recycle buffers, chain structs and
// window slices through free lists instead of leaving them to the garbage
// collector.
// A double free panics in either mode. Debug mode trades the recycling for
// poisoning: a use-after-free panics instead of silently corrupting a
// recycled object, pools can report exactly who leaked what, and a header
// push into shared backing panics (Chain.PushFront).
//
// The chain free lists are process-global and therefore shared by clusters
// that run on different goroutines (parallel subtests); chainMu guards them.
// Chain identity never affects simulated results (a recycled chain is
// indistinguishable from a fresh one), so the free-list order being
// interleaving-dependent is harmless. Buffers need no such list: a pool's
// recycle on the pool, which belongs to one node, and a released standalone
// buffer goes to the collector.

// debugMode switches the substrate from recycle-on-release to
// poison-on-release. See SetDebug.
var debugMode bool

// SetDebug enables (or disables) ownership debugging. With debugging on:
//   - released chains and records are poisoned, never recycled, so a stale
//     reference trips the double-free panic deterministically (recycled, a
//     chain released twice may already be someone else's);
//   - pools track every outstanding buffer so LeakReport / MustBeDrained
//     can name the owners of leaked buffers.
//
// Debug mode changes no simulated behavior, only failure reporting; tests
// and CI run the suite once with it enabled.
func SetDebug(on bool) { debugMode = on }

// DebugEnabled reports whether ownership debugging is on.
func DebugEnabled() bool { return debugMode }

// recordDoubleFree panics on a Release of an already-free buffer, naming its
// owner: in a deterministic simulator a double free is a bug, never a count.
func recordDoubleFree(b *Buf) {
	panic(fmt.Sprintf("netbuf: double free of %s (owner %q)", b, b.owner))
}

// recordChainDoubleFree panics on a Release of an already-released chain.
func recordChainDoubleFree(c *Chain) {
	panic(fmt.Sprintf("netbuf: double free of %s", c))
}

// poisonByte fills payload memory retired in debug mode. 0xDB is no valid
// lkey marker, XDR length or block of synthesized content, so whatever
// reads a retired payload fails its own integrity check.
const poisonByte = 0xDB

// Recycle hands back a flat payload whose record is about to retire (an
// iSCSI staging buffer, a WAL payload, a buffer-cache page) and reports
// whether the payload may be reused. In debug mode, where the record is
// abandoned, the payload is poisoned and may not, so a reader that kept it
// past the hand-back sees poison instead of the next owner's bytes.
func Recycle(p []byte) bool {
	if debugMode {
		p = p[:cap(p)]
		for i := range p {
			p[i] = poisonByte
		}
	}
	return !debugMode
}

// Window slices are recycled by power-of-two size class, the way a slab
// allocator keeps one cache per object size: class k holds empty slices of
// capacity minWins<<k. A chain's struct and its slice retire separately, so
// a small frame chain's struct can go to a large reassembly without handing
// it a slice it must regrow. Slices of winClasses and above are left to the
// collector.
const (
	minWinsLog = 2
	minWins    = 1 << minWinsLog
	winClasses = 16
)

// chainFree recycles Chain structs and winFree their window slices; chainMu
// guards both, so a chain and its slice move in one critical section.
var (
	chainMu   sync.Mutex
	chainFree []*Chain
	winFree   [winClasses][][]Window
)

// winClass returns the class of the slices that hold n > 0 windows: the
// smallest k with minWins<<k >= n.
func winClass(n int) int {
	if n <= minWins {
		return 0
	}
	return bits.Len(uint(n-1)) - minWinsLog
}

// makeWins allocates an empty slice of the class that holds n windows (nil
// for none).
func makeWins(n int) []Window {
	if n <= 0 {
		return nil
	}
	return make([]Window, 0, minWins<<winClass(n))
}

// takeWins pops an empty slice of the class that holds n > 0 windows, or
// returns nil when the class has none. chainMu must be held.
func takeWins(n int) []Window {
	k := winClass(n)
	if k >= winClasses || len(winFree[k]) == 0 {
		return nil
	}
	l := winFree[k]
	s := l[len(l)-1]
	l[len(l)-1] = nil
	winFree[k] = l[:len(l)-1]
	return s
}

// putWins returns a slice whose slots the caller has cleared to its class;
// a slice of no class (nil, or past the largest) is dropped. chainMu must be
// held.
func putWins(s []Window) {
	if k := winClass(cap(s)); k < winClasses && minWins<<k == cap(s) {
		winFree[k] = append(winFree[k], s[:0])
	}
}

// getChain returns an empty chain with room for n windows, reusing a
// released struct and a slice of the fitting class when possible.
func getChain(n int) *Chain {
	if debugMode {
		return &Chain{wins: makeWins(n)}
	}
	var c *Chain
	var wins []Window
	chainMu.Lock()
	if k := len(chainFree); k > 0 {
		c = chainFree[k-1]
		chainFree[k-1] = nil
		chainFree = chainFree[:k-1]
	}
	if n > 0 {
		wins = takeWins(n)
	}
	chainMu.Unlock()
	if c == nil {
		c = &Chain{}
	}
	if wins == nil {
		wins = makeWins(n)
	}
	c.freed = false
	c.wins = wins
	return c
}

// growWins returns a slice of the class that holds n > cap(old) windows,
// holding old's windows, and retires old to its own class with its slots
// cleared.
func growWins(old []Window, n int) []Window {
	if debugMode {
		return append(makeWins(n), old...)
	}
	chainMu.Lock()
	defer chainMu.Unlock()
	wins := takeWins(n)
	if wins == nil {
		wins = makeWins(n)
	}
	wins = append(wins, old...)
	clear(old)
	putWins(old)
	return wins
}

// putChain retires a released chain, whose slots the caller has cleared:
// the struct and its slice go back to their free lists. In debug mode both
// are abandoned and the struct stays poisoned, so a second Release or
// further use panics instead of corrupting a reused chain.
func putChain(c *Chain) {
	c.freed = true
	c.ckValid = false
	wins := c.wins
	c.wins = nil
	if debugMode {
		return
	}
	chainMu.Lock()
	chainFree = append(chainFree, c)
	putWins(wins)
	chainMu.Unlock()
}
