package ncache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ncache/internal/lkey"
)

// The remap property tests drive random interleavings of the four cache
// hooks, under a model of the FS cache above them, against a reference model
// and check two invariants. Freshness (§3.4): a substitution never serves
// data older than the newest write — in particular, while a dirty FHO entry
// exists for a block, every read of that block returns the FHO bytes, no
// matter what stale disk content the LBN cache has absorbed meanwhile. And
// the module's own: every key the FS cache holds resolves, so every
// substitution hits, because an entry dies only with the FS block that
// names it (the eviction hook, fakeFS).

// remapModel is the reference state the module is checked against.
type remapModel struct {
	fho  map[lkey.Key][]byte // dirty FHO entries (pinned, must always hit)
	disk map[int64][]byte    // what storage holds (updated when a flush lands)
}

// fhoKeySpace is the small key pool random ops draw from: 4 files × 4
// block-aligned offsets, each with a fixed flush destination.
const (
	modelFiles   = 4
	modelOffsets = 4
)

func modelKey(file, slot int) (lkey.FH, uint64, int64) {
	fh := lkey.FH{byte(file + 1)}
	off := uint64(slot) * bs
	lbn := int64(1000 + file*modelOffsets + slot)
	return fh, off, lbn
}

// runRemapModel replays nOps random hook invocations derived from seed and
// reports the first invariant violation. Capacity is a parameter so the
// property can be checked both without eviction and under pressure (dirty
// entries are pinned, and clean ones die with their FS blocks, so every
// key the FS cache holds must still hit).
func runRemapModel(t *testing.T, seed int64, nOps int, capacity int64) bool {
	t.Helper()
	eng, _, m := newModule(t, capacity)
	fs := newFakeFS(m)
	rng := rand.New(rand.NewSource(seed))
	model := remapModel{
		fho:  make(map[lkey.Key][]byte),
		disk: make(map[int64][]byte),
	}
	version := 0
	content := func() []byte {
		version++
		return blockData(byte(version), bs)
	}
	for _, slot := range []int{0, 1, 2, 3} {
		for f := 0; f < modelFiles; f++ {
			_, _, lbn := modelKey(f, slot)
			model.disk[lbn] = content()
		}
	}

	// substitute sends the key the FS cache holds for lbn through the
	// transmit hook, which must hit and serve the block's newest bytes:
	// the dirty FHO data if there is any, else what storage holds.
	substitute := func(fkey lkey.Key, lbn int64) bool {
		key := fs.keys[lbn]
		want, dirty := model.fho[fkey]
		if !dirty {
			want = model.disk[lbn]
		}
		hits := m.Stats.LBNHits + m.Stats.FHOHits
		out := m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, key, bs))
		eng.Run()
		if m.Stats.LBNHits+m.Stats.FHOHits == hits {
			t.Logf("seed %d: key %+v missed", seed, key)
			return false
		}
		if !bytes.Equal(out.Flatten(), want) {
			t.Logf("seed %d: key %+v served stale bytes", seed, key)
			return false
		}
		return true
	}
	// fill brings lbn into the FS cache the way its miss path does: from
	// the LBN cache when it holds the block, else from storage, captured
	// while the FS block is a placeholder still filling (no key yet, and
	// not evictable).
	fill := func(lbn int64) {
		if _, ok := fs.keys[lbn]; ok {
			return
		}
		fs.keys[lbn], fs.held[lbn] = lkey.Key{}, true
		if junk, ok := m.ServeRead(lbn, 1); ok {
			junk.Release()
		} else {
			m.CaptureLBN(lbn, 1, m.node.TxPool.GetChain(model.disk[lbn])).Release()
		}
		fs.keys[lbn], fs.held[lbn] = lkey.ForLBN(lbn), false
	}

	for i := 0; i < nOps; i++ {
		file := rng.Intn(modelFiles)
		slot := rng.Intn(modelOffsets)
		fh, off, lbn := modelKey(file, slot)
		fkey := lkey.ForFHO(fh, off)
		switch rng.Intn(5) {
		case 0: // client write → FHO capture (overwrites any prior dirty data); the FS block takes its key
			data := content()
			junk := m.CaptureFHO(fh, off, m.node.TxPool.GetChain(data))
			if _, ok := lkey.Of(junk.Bufs()[0]); !ok {
				t.Logf("seed %d: aligned FHO capture not stamped", seed)
				return false
			}
			junk.Release()
			fs.keys[lbn] = fkey
			model.fho[fkey] = data
		case 1: // file-system flush → WriteOut remaps FHO under its LBN, and the write lands
			data, dirty := model.fho[fkey]
			if !dirty {
				continue
			}
			wire, remapped, mark := m.WriteOut(lbn, 1, lkey.StampChainPool(m.node.BlkPool, fs.keys[lbn], bs), nil)
			m.Landed(remapped, mark)
			if !bytes.Equal(wire.Flatten(), data) {
				t.Logf("seed %d: flush of %+v substituted wrong bytes", seed, fkey)
				return false
			}
			wire.Release()
			delete(model.fho, fkey)
			model.disk[lbn] = data
			// The landed block's key takes its LBN (flush.written).
			if k, ok := fs.keys[lbn]; ok {
				fs.keys[lbn] = k.WithLBN(lbn)
			}
		case 2: // FS-cache miss → second-level hit or iSCSI read and LBN capture
			fill(lbn)
		case 3: // read of the block through the FS cache
			fill(lbn)
			if !substitute(fkey, lbn) {
				return false
			}
		case 4: // the FS cache evicts the block on its own, unless it is dirty
			if _, dirty := model.fho[fkey]; !dirty {
				delete(fs.keys, lbn)
			}
		}
		eng.Run()
	}

	// Closing sweep: every block the FS cache still holds serves its
	// newest bytes, and every surviving dirty entry is one of them.
	for key := range model.fho {
		_, _, lbn := modelKey(int(key.FH[0])-1, int(key.Off/bs))
		if _, ok := fs.keys[lbn]; !ok {
			t.Logf("seed %d: dirty key %+v has no FS-cache block", seed, key)
			return false
		}
	}
	for f := 0; f < modelFiles; f++ {
		for slot := 0; slot < modelOffsets; slot++ {
			fh, off, lbn := modelKey(f, slot)
			if _, ok := fs.keys[lbn]; ok && !substitute(lkey.ForFHO(fh, off), lbn) {
				return false
			}
		}
	}
	return true
}

// TestQuickRemapFreshness checks the freshness invariant over random op
// sequences with ample capacity (no eviction in play).
func TestQuickRemapFreshness(t *testing.T) {
	f := func(seed int64) bool {
		return runRemapModel(t, seed, 80, 1<<24)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRemapFreshnessUnderPressure re-checks with room for only ~6
// blocks: clean entries get evicted with their FS-cache blocks, dirty FHO
// entries are pinned, so every key the FS cache holds must still hit, with
// its newest bytes.
func TestQuickRemapFreshnessUnderPressure(t *testing.T) {
	f := func(seed int64) bool {
		return runRemapModel(t, seed, 80, int64(6*(bs+EntryOverheadBytes)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
