package ncache

import (
	"bytes"
	"testing"

	"ncache/internal/lkey"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

const bs = 4096

func newModule(t *testing.T, capacity int64) (*sim.Engine, *simnet.Node, *Module) {
	t.Helper()
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	m := New(node, Config{CapacityBytes: capacity, BlockSize: bs})
	return eng, node, m
}

// blockData builds deterministic block content.
func blockData(tag byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = tag ^ byte(i*7)
	}
	return out
}

func TestCaptureLBNReturnsStampedJunk(t *testing.T) {
	eng, node, m := newModule(t, 1<<20)
	payload := append(blockData(1, bs), blockData(2, bs)...)
	wire := m.node.TxPool.GetChain(payload)
	before := node.Copies.PhysicalOps

	junk := m.CaptureLBN(100, 2, wire)
	eng.Run()
	if junk.Len() != 2*bs {
		t.Fatalf("junk len = %d", junk.Len())
	}
	k1, ok := lkey.Of(junk.Bufs()[0])
	if !ok || k1.LBN != 100 {
		t.Fatalf("first key = %+v ok=%v", k1, ok)
	}
	second, err := junk.SubChain(bs, bs)
	if err != nil {
		t.Fatal(err)
	}
	k2, ok := lkey.Of(second.Bufs()[0])
	if !ok || k2.LBN != 101 {
		t.Fatalf("second key = %+v", k2)
	}
	if node.Copies.PhysicalOps != before {
		t.Fatal("capture physically copied payload")
	}
	if m.entries() != 2 || m.Stats.Captures != 2 {
		t.Fatalf("entries=%d captures=%d", m.entries(), m.Stats.Captures)
	}
}

func TestSubstituteMessageRestoresPayload(t *testing.T) {
	eng, _, m := newModule(t, 1<<20)
	want := blockData(7, bs)
	m.CaptureLBN(55, 1, m.node.TxPool.GetChain(want))

	// Compose a "reply": header bytes + one stamped junk block.
	msg := m.node.TxPool.GetChain([]byte("RPCHDR"))
	msg.AppendChain(lkey.StampChainPool(m.node.BlkPool, lkey.ForLBN(55), bs))
	out := m.SubstituteMessage(msg)
	eng.Run()
	flat := out.Flatten()
	if string(flat[:6]) != "RPCHDR" {
		t.Fatal("header damaged")
	}
	if !bytes.Equal(flat[6:], want) {
		t.Fatal("substitution did not restore payload")
	}
	if m.Stats.Substitutions != 1 || m.Stats.LBNHits != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

// TestUnresolvedKeyPanics: a key that names no entry is a logical block that
// outlived its entry, a broken invariant; each hook that resolves keys
// panics on one instead of passing the junk on as data. So does junk with
// no identity, which only Baseline, with no module, stamps.
func TestUnresolvedKeyPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  lkey.Key
		hook func(m *Module, key lkey.Key, junk *netbuf.Chain)
	}{
		{"SubstituteMessage", lkey.ForLBN(999), func(m *Module, _ lkey.Key, junk *netbuf.Chain) { m.SubstituteMessage(junk) }},
		{"WriteOut", lkey.ForLBN(999), func(m *Module, _ lkey.Key, junk *netbuf.Chain) { m.WriteOut(999, 1, junk, nil) }},
		{"Materialize", lkey.ForLBN(999), func(m *Module, key lkey.Key, _ *netbuf.Chain) { m.Materialize(key, make([]byte, bs)) }},
		{"identity-free junk", lkey.Key{}, func(m *Module, _ lkey.Key, junk *netbuf.Chain) { m.SubstituteMessage(junk) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, m := newModule(t, 1<<20)
			m.CaptureLBN(10, 1, m.node.TxPool.GetChain(blockData(1, bs))).Release()
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("a key naming no entry did not panic")
				}
			}()
			tc.hook(m, tc.key, lkey.StampChainPool(m.node.BlkPool, tc.key, bs))
		})
	}
}

func TestFHOCaptureAndFreshnessOverLBN(t *testing.T) {
	eng, _, m := newModule(t, 1<<20)
	stale := blockData(1, bs)
	fresh := blockData(2, bs)
	fh := lkey.FH{9}

	// Old disk content in the LBN cache.
	m.CaptureLBN(300, 1, m.node.TxPool.GetChain(stale))
	// Client writes new content → FHO cache.
	junk := m.CaptureFHO(fh, 8192, m.node.TxPool.GetChain(fresh))
	if _, ok := lkey.Of(junk.Bufs()[0]); !ok {
		t.Fatal("FHO capture did not stamp")
	}

	// A read reply whose block carries both identities must resolve FHO
	// first (§3.4: clients always see the newest data).
	key := lkey.ForFHO(fh, 8192).WithLBN(300)
	out := m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, key, bs))
	eng.Run()
	if !bytes.Equal(out.Flatten(), fresh) {
		t.Fatal("substitution served stale LBN data over fresh FHO data")
	}
	if m.Stats.FHOHits != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

func TestWriteOutRemapsFHOToLBN(t *testing.T) {
	eng, _, m := newModule(t, 1<<20)
	fh := lkey.FH{3}
	data := blockData(9, bs)
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(data))
	if m.PinnedBytes() == 0 {
		t.Fatal("dirty FHO entry not pinned")
	}

	// The file system flushes: stamped junk goes down the iSCSI write
	// path; the hook must substitute real data and remap.
	flush := lkey.StampChainPool(m.node.BlkPool, lkey.ForFHO(fh, 0), bs)
	wire, remapped, mark := m.WriteOut(700, 1, flush, nil)
	eng.Run()
	if !bytes.Equal(wire.Flatten(), data) {
		t.Fatal("flush payload not substituted with real data")
	}
	if m.Stats.Remaps != 1 || len(remapped) != 1 || remapped[0] != 700 {
		t.Fatalf("remaps = %d, reported %v, want one at LBN 700", m.Stats.Remaps, remapped)
	}
	// Until the write lands the entry is the only copy of the data: it
	// stays pinned, so a failed write needs no undo, and the retried flush
	// (still stamped with the file identity only) remaps it afresh and
	// reports the same LBN.
	if m.PinnedBytes() == 0 {
		t.Fatal("entry unpinned before the write carrying it landed")
	}
	wire, remapped, mark = m.WriteOut(700, 1, lkey.StampChainPool(m.node.BlkPool, lkey.ForFHO(fh, 0), bs), nil)
	if !bytes.Equal(wire.Flatten(), data) {
		t.Fatal("retried flush not substituted with real data")
	}
	if m.Stats.Remaps != 2 || len(remapped) != 1 || remapped[0] != 700 || m.PinnedBytes() == 0 || m.entries() != 1 {
		t.Fatalf("retry: remaps = %d, reported %v, pinned %d, entries %d",
			m.Stats.Remaps, remapped, m.PinnedBytes(), m.entries())
	}

	// The client rewrites the block while that write is in flight, and the
	// next flush remaps the new data to the same LBN. The old write's landing
	// predates the rewrite: it must leave the new data pinned.
	newer := blockData(10, bs)
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(newer))
	_, remapped2, mark2 := m.WriteOut(700, 1, lkey.StampChainPool(m.node.BlkPool, lkey.ForFHO(fh, 0), bs), nil)
	m.Landed(remapped, mark)
	if m.PinnedBytes() == 0 {
		t.Fatal("a write issued before the rewrite unpinned the rewritten data")
	}
	m.Landed(remapped2, mark2)
	if p := m.PinnedBytes(); p != 0 || m.entries() != 1 {
		t.Fatalf("after the rewrite's own write landed: pinned %d, entries %d", p, m.entries())
	}

	// The newest data is now reachable under its LBN.
	out := m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, lkey.ForLBN(700), bs))
	eng.Run()
	if !bytes.Equal(out.Flatten(), newer) {
		t.Fatal("remapped entry not reachable by LBN")
	}
	// And the FHO index no longer holds it separately (moved, not copied).
	if m.entries() != 1 {
		t.Fatalf("entries = %d, want 1", m.entries())
	}
}

func TestRemapOverwritesStaleLBNEntry(t *testing.T) {
	eng, _, m := newModule(t, 1<<20)
	stale := blockData(1, bs)
	fresh := blockData(2, bs)
	fh := lkey.FH{4}
	m.CaptureLBN(800, 1, m.node.TxPool.GetChain(stale))
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(fresh))
	m.WriteOut(800, 1, lkey.StampChainPool(m.node.BlkPool, lkey.ForFHO(fh, 0), bs), nil)
	eng.Run()
	out := m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, lkey.ForLBN(800), bs))
	eng.Run()
	if !bytes.Equal(out.Flatten(), fresh) {
		t.Fatal("stale LBN entry survived remap")
	}
	if m.entries() != 1 {
		t.Fatalf("entries = %d, want 1 (stale entry dropped)", m.entries())
	}
}

// fakeFS stands for the FS cache above the module (FSCache): one logical
// block per LBN in keys. The module drops a block through Evict, which
// records the LBN in evicted; a block in held cannot be evicted.
type fakeFS struct {
	keys    map[int64]lkey.Key
	held    map[int64]bool
	evicted []int64
}

func newFakeFS(m *Module) *fakeFS {
	f := &fakeFS{keys: make(map[int64]lkey.Key), held: make(map[int64]bool)}
	m.Attach(f)
	return f
}

func (f *fakeFS) KeyAt(lbn int64) (lkey.Key, bool) {
	k, ok := f.keys[lbn]
	return k, ok
}

func (f *fakeFS) Evict(lbn int64) bool {
	if f.held[lbn] {
		return false
	}
	delete(f.keys, lbn)
	f.evicted = append(f.evicted, lbn)
	return true
}

func TestLRUEvictionSkipsDirty(t *testing.T) {
	// Capacity for ~4 blocks incl. overhead.
	eng, _, m := newModule(t, int64(4*(bs+EntryOverheadBytes)))
	fs := newFakeFS(m)
	fh := lkey.FH{1}
	// One dirty FHO entry.
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(blockData(0, bs)))
	// Flood with clean LBN entries, each held by the FS cache as a key.
	for i := int64(0); i < 10; i++ {
		m.CaptureLBN(1000+i, 1, m.node.TxPool.GetChain(blockData(byte(i), bs)))
		fs.keys[1000+i] = lkey.ForLBN(1000 + i)
	}
	eng.Run()
	if m.Stats.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if m.used > int64(4*(bs+EntryOverheadBytes))+int64(bs+EntryOverheadBytes) {
		t.Fatalf("used = %d exceeds capacity + one pinned", m.used)
	}
	// The dirty FHO entry survived.
	out := m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, lkey.ForFHO(fh, 0), bs))
	eng.Run()
	if !bytes.Equal(out.Flatten(), blockData(0, bs)) {
		t.Fatal("dirty FHO entry was evicted")
	}
	// The coldest entries died first, each with its FS-cache block; the
	// hottest survived, and so did its key.
	if uint64(len(fs.evicted)) != m.Stats.Evictions {
		t.Fatalf("%d evictions dropped %d FS-cache blocks", m.Stats.Evictions, len(fs.evicted))
	}
	for i, lbn := range fs.evicted {
		if lbn != 1000+int64(i) {
			t.Fatalf("FS-cache blocks dropped in order %v, want LRU order from 1000", fs.evicted)
		}
	}
	if _, ok := fs.keys[1009]; !ok {
		t.Fatal("MRU entry evicted before LRU")
	}
	out = m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, lkey.ForLBN(1009), bs))
	eng.Run()
	if !bytes.Equal(out.Flatten(), blockData(9, bs)) {
		t.Fatal("MRU entry does not serve its bytes")
	}
}

// TestEvictionKeepsEntryOfHeldBlock: an entry whose FS-cache block its cache
// cannot evict (pinned, dirty, flushing or filling) stays, counted as a
// pinned skip, so the block's key still resolves; an entry whose LBN holds a
// block naming another entry dies alone.
func TestEvictionKeepsEntryOfHeldBlock(t *testing.T) {
	eng, _, m := newModule(t, int64(2*(bs+EntryOverheadBytes)))
	fs := newFakeFS(m)
	fh := lkey.FH{5}
	m.CaptureLBN(10, 1, m.node.TxPool.GetChain(blockData(1, bs)))
	fs.keys[10], fs.held[10] = lkey.ForLBN(10), true
	// The FS block at 11 names a client write to the file, not the LBN
	// entry there.
	m.CaptureLBN(11, 1, m.node.TxPool.GetChain(blockData(2, bs)))
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(blockData(3, bs)))
	fs.keys[11] = lkey.ForFHO(fh, 0)
	eng.Run()
	if m.Stats.PinnedSkips == 0 || m.lbn[10] == nil {
		t.Fatalf("entry of a held block evicted (pinned skips %d)", m.Stats.PinnedSkips)
	}
	if m.lbn[11] != nil || len(fs.evicted) != 0 {
		t.Fatalf("entry 11 alive %v, FS blocks dropped %v: want entry dead, its LBN's block kept", m.lbn[11] != nil, fs.evicted)
	}
	out := m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, lkey.ForLBN(10), bs))
	eng.Run()
	if !bytes.Equal(out.Flatten(), blockData(1, bs)) {
		t.Fatal("held block's entry does not serve its bytes")
	}
}

// TestRewriteKeepsRemappedEntryUnderLBN: a client rewrites a block whose
// flush has landed while a read of it is filling the FS cache from the LBN
// cache. The old entry keeps the LBN identity the filling block's key names,
// with the bytes storage holds; the FHO identity goes to the new data.
func TestRewriteKeepsRemappedEntryUnderLBN(t *testing.T) {
	eng, _, m := newModule(t, 1<<20)
	fs := newFakeFS(m)
	fh := lkey.FH{6}
	flushed, rewritten := blockData(1, bs), blockData(2, bs)
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(flushed)).Release()
	_, remapped, mark := m.WriteOut(60, 1, lkey.StampChainPool(m.node.BlkPool, lkey.ForFHO(fh, 0), bs), nil)
	m.Landed(remapped, mark)
	// The FS cache dropped the clean block; a read of it fills from the
	// LBN cache while the client's rewrite is captured.
	fs.keys[60], fs.held[60] = lkey.Key{}, true
	junk, ok := m.ServeRead(60, 1)
	if !ok {
		t.Fatal("remapped entry not served by LBN")
	}
	junk.Release()
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(rewritten)).Release()
	fs.keys[60], fs.held[60] = lkey.ForLBN(60), false
	out := m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, lkey.ForLBN(60), bs))
	eng.Run()
	if !bytes.Equal(out.Flatten(), flushed) {
		t.Fatal("the filled block's LBN key does not serve the bytes storage holds")
	}
	out = m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, lkey.ForFHO(fh, 0).WithLBN(60), bs))
	eng.Run()
	if !bytes.Equal(out.Flatten(), rewritten) {
		t.Fatal("the rewrite's FHO key does not serve the rewritten bytes")
	}
	if m.entries() != 2 {
		t.Fatalf("entries = %d, want the old one under its LBN and the rewrite", m.entries())
	}
}

func TestOverwriteBeforeFlush(t *testing.T) {
	// The Table 2 "overwritten" case: a second write to the same FHO
	// replaces the first entry without any flush.
	eng, _, m := newModule(t, 1<<20)
	fh := lkey.FH{2}
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(blockData(1, bs)))
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(blockData(2, bs)))
	eng.Run()
	if m.entries() != 1 {
		t.Fatalf("entries = %d, want 1", m.entries())
	}
	out := m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, lkey.ForFHO(fh, 0), bs))
	eng.Run()
	if !bytes.Equal(out.Flatten(), blockData(2, bs)) {
		t.Fatal("overwrite did not replace FHO entry")
	}
}

func TestUnalignedFHOPassesThrough(t *testing.T) {
	_, _, m := newModule(t, 1<<20)
	odd := m.node.TxPool.GetChain(make([]byte, 1000))
	out := m.CaptureFHO(lkey.FH{}, 0, odd)
	if out != odd {
		t.Fatal("unaligned payload should pass through uncached")
	}
	if m.entries() != 0 {
		t.Fatal("unaligned payload was cached")
	}
}

func TestDisableRemapAblation(t *testing.T) {
	eng := sim.NewEngine()
	node := simnet.NewNode(eng, "app", simnet.DefaultProfile())
	m := New(node, Config{CapacityBytes: 1 << 20, BlockSize: bs, DisableRemap: true})
	fs := newFakeFS(m)
	fh := lkey.FH{8}
	data := blockData(5, bs)
	m.CaptureFHO(fh, 0, m.node.TxPool.GetChain(data))
	fs.keys[50] = lkey.ForFHO(fh, 0)
	wire, remapped, mark := m.WriteOut(50, 1, lkey.StampChainPool(m.node.BlkPool, lkey.ForFHO(fh, 0), bs), nil)
	eng.Run()
	if !bytes.Equal(wire.Flatten(), data) {
		t.Fatal("flush data lost with remap disabled")
	}
	// Until the write lands the entry is the only copy of the data.
	if m.entries() != 1 || m.PinnedBytes() == 0 {
		t.Fatal("entry dropped before the write carrying it landed")
	}
	m.Landed(remapped, mark)
	if m.entries() != 0 {
		t.Fatal("entry should be dropped when its write lands with remap disabled")
	}
	if _, ok := fs.keys[50]; ok {
		t.Fatal("the FS-cache block naming the dropped entry stayed")
	}
	if m.Stats.Remaps != 0 {
		t.Fatal("remap counted despite ablation")
	}
}

func TestInvalidateLBN(t *testing.T) {
	_, _, m := newModule(t, 1<<20)
	fs := newFakeFS(m)
	m.CaptureLBN(10, 1, m.node.TxPool.GetChain(blockData(1, bs)))
	fs.keys[10], fs.held[10] = lkey.ForLBN(10), true
	m.InvalidateLBN(10)
	if m.lbn[10] == nil {
		t.Fatal("entry named by a held FS-cache block invalidated under it")
	}
	fs.held[10] = false
	m.InvalidateLBN(10)
	if m.lbn[10] != nil || m.entries() != 0 {
		t.Fatal("invalidated entry still indexed")
	}
	if _, ok := fs.keys[10]; ok {
		t.Fatal("invalidated entry's FS-cache block stayed")
	}
}

func TestChecksumInheritanceStored(t *testing.T) {
	_, _, m := newModule(t, 1<<20)
	data := blockData(3, bs)
	m.CaptureLBN(20, 1, m.node.TxPool.GetChain(data))
	e := m.lbn[20]
	if e.partial.Checksum() != netbuf.Sum(data) {
		t.Fatal("inherited checksum does not match payload")
	}
}

// entries counts the entries in the LRU ring.
func (m *Module) entries() int {
	n := 0
	for e := m.lru.next; e != &m.lru; e = e.next {
		n++
	}
	return n
}

// TestCaptureEvictZeroAllocs: once the cache is full, capturing a 4-block
// READ payload — one entry per block, each holding windows onto the wire
// buffers, with an eviction per block to make room — allocates nothing: the
// entries, their chains and the junk come back from where evictions and
// releases retired them.
func TestCaptureEvictZeroAllocs(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	_, node, m := newModule(t, 8*(bs+EntryOverheadBytes))
	payload := make([]byte, 4*bs)
	lba := int64(0)
	round := func() {
		wire := node.TxPool.GetChain(payload)
		m.CaptureLBN(lba, 4, wire).Release()
		lba += 4
	}
	for i := 0; i < 8; i++ {
		round() // fill, then prime the free lists
	}
	evictions := m.Stats.Evictions
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("steady-state capture with eviction allocates %.0f objects per READ, want 0", avg)
	}
	if m.Stats.Evictions-evictions < 4*200 || m.entries() != 8 {
		t.Fatalf("%d evictions, %d entries: not a full cache", m.Stats.Evictions-evictions, m.entries())
	}
}
