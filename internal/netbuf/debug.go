package netbuf

import (
	"fmt"
	"math/bits"
	"os"
	"slices"
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
// Chain structs and window slices recycle the way buffers do: on the pool
// a chain was built from (see getChain), which belongs to one node of one
// cluster and so to one goroutine, with no lock. Every chain is built on a
// pool; only a released standalone buffer (New) goes to the collector.

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

// Recycle hands back a flat payload whose record is about to retire (a WAL
// payload, a buffer-cache page) and reports whether the payload may be
// reused. In debug mode, where the record is abandoned, the payload is
// poisoned and may not, so a reader that kept it past the hand-back sees
// poison instead of the next owner's bytes.
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

// winClass returns the class of the slices that hold n > 0 windows: the
// smallest k with minWins<<k >= n.
func winClass(n int) int {
	if n <= minWins {
		return 0
	}
	return bits.Len(uint(n-1)) - minWinsLog
}

// takeWins pops an empty slice that holds n > 0 windows from the smallest
// non-empty class at or above the one that fits, so no slice idles in a
// large class while a small one is allocated, or returns nil when there is
// none.
func (p *Pool) takeWins(n int) []Window {
	for k := winClass(n); k < winClasses; k++ {
		if f := p.wins[k]; len(f) > 0 {
			s := f[len(f)-1]
			f[len(f)-1] = nil
			p.wins[k] = f[:len(f)-1]
			return s
		}
	}
	return nil
}

// putWins returns a slice whose slots the caller has cleared to its class;
// a slice of no class (nil, or past the largest) is dropped.
func (p *Pool) putWins(s []Window) {
	if k := winClass(cap(s)); k < winClasses && minWins<<k == cap(s) {
		p.wins[k] = append(p.wins[k], s[:0])
	}
}

// getChain returns an empty chain with room for n windows that retires to
// p and is held by holder (see Pool.ReleaseHeld), reusing a struct and a
// slice from p's lists when possible.
func getChain(p, holder *Pool, n int) *Chain {
	var c *Chain
	if k := len(p.chains); k > 0 { // never in debug mode, where putChain keeps none
		c = p.chains[k-1]
		p.chains[k-1] = nil
		p.chains = p.chains[:k-1]
		c.freed = false
	} else {
		// A struct the pool builds joins made. In debug mode, where no
		// struct is recycled, a full list first drops the released ones and
		// keeps room for as many again, so the pruning costs O(1) a chain.
		if debugMode && len(p.made) == cap(p.made) {
			p.made = slices.DeleteFunc(p.made, func(m *Chain) bool { return m.freed })
			p.made = slices.Grow(p.made, len(p.made))
		}
		c = p.chainSlab.New()
		c.pool = p
		p.made = append(p.made, c)
	}
	if n > 0 && c.wins == nil {
		c.wins = p.getWins(n)
	}
	c.holder = holder
	return c
}

// getWins returns an empty slice that holds n > 0 windows: one off p's
// lists, or else one carved from the slab of its class with the class's
// exact capacity, so that putWins files it there when it retires. Slices
// past the largest class are left to the collector.
func (p *Pool) getWins(n int) []Window {
	if s := p.takeWins(n); s != nil {
		return s
	}
	k := winClass(n)
	if k >= winClasses {
		return make([]Window, 0, minWins<<k)
	}
	return p.winSlabs[k].Carve(minWins << k)[:0]
}

// growWins returns a slice of the class that holds n > cap(old) windows,
// holding old's windows, and retires old to p's lists with its slots
// cleared (debug mode abandons it).
func (p *Pool) growWins(old []Window, n int) []Window {
	wins := append(p.getWins(n), old...)
	if !debugMode {
		clear(old)
		p.putWins(old)
	}
	return wins
}

// putChain retires a released chain, whose slots the caller has cleared:
// the struct and its slice go back to its pool's lists. In debug mode both
// are abandoned and the struct stays poisoned, so a second Release or
// further use panics instead of corrupting a reused chain.
func putChain(c *Chain) {
	c.freed = true
	c.ckValid = false
	wins := c.wins
	c.wins = nil
	if !debugMode {
		c.pool.chains = append(c.pool.chains, c)
		c.pool.putWins(wins)
	}
}
