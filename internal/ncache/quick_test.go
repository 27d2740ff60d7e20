package ncache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ncache/internal/lkey"
)

// The remap property tests drive random interleavings of the four cache
// hooks against a reference model and check the paper's freshness invariant
// (§3.4): a substitution may serve cached bytes or miss, but it must never
// serve data older than the newest write — in particular, while a dirty FHO
// entry exists for a block, every read of that block returns the FHO bytes,
// no matter what stale disk content the LBN cache has absorbed meanwhile.

// remapModel is the reference state the module is checked against.
type remapModel struct {
	fho  map[lkey.Key][]byte // dirty FHO entries (pinned, must always hit)
	lbn  map[int64][]byte    // what the LBN cache holds, if it holds the block
	disk map[int64][]byte    // what storage holds (updated when a flush departs)
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
// entries are pinned, so freshness must survive eviction of clean ones).
func runRemapModel(t *testing.T, seed int64, nOps int, capacity int64) bool {
	t.Helper()
	eng, _, m := newModule(t, capacity)
	rng := rand.New(rand.NewSource(seed))
	model := remapModel{
		fho:  make(map[lkey.Key][]byte),
		lbn:  make(map[int64][]byte),
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

	// substitute runs one transmit-path lookup and checks the result
	// against the model; stats deltas tell a hit from a junk pass-through.
	substitute := func(key lkey.Key, wantFresh []byte, mustHit bool) bool {
		hits := m.Stats.LBNHits + m.Stats.FHOHits
		misses := m.Stats.SubstMisses
		out := m.SubstituteMessage(lkey.StampChainPool(m.node.BlkPool, key, bs))
		eng.Run()
		hit := m.Stats.LBNHits+m.Stats.FHOHits > hits
		if !hit {
			if mustHit {
				t.Logf("seed %d: dirty FHO key %+v missed (pinned entry lost)", seed, key)
				return false
			}
			if m.Stats.SubstMisses == misses {
				t.Logf("seed %d: key %+v neither hit nor missed", seed, key)
				return false
			}
			return true
		}
		if !bytes.Equal(out.Flatten(), wantFresh) {
			t.Logf("seed %d: key %+v served stale bytes", seed, key)
			return false
		}
		return true
	}

	for i := 0; i < nOps; i++ {
		file := rng.Intn(modelFiles)
		slot := rng.Intn(modelOffsets)
		fh, off, lbn := modelKey(file, slot)
		fkey := lkey.ForFHO(fh, off)
		switch rng.Intn(5) {
		case 0: // client write → FHO capture (overwrites any prior dirty data)
			data := content()
			junk := m.CaptureFHO(fh, off, m.node.TxPool.GetChain(data))
			if _, ok := lkey.Of(junk.Bufs()[0]); !ok {
				t.Logf("seed %d: aligned FHO capture not stamped", seed)
				return false
			}
			model.fho[fkey] = data
		case 1: // file-system flush → WriteOut remaps FHO under its LBN, and the write lands
			data, dirty := model.fho[fkey]
			if !dirty {
				continue
			}
			wire, remapped, mark := m.WriteOut(lbn, 1, lkey.StampChainPool(m.node.BlkPool, fkey, bs), nil)
			m.Landed(remapped, mark)
			if !bytes.Equal(wire.Flatten(), data) {
				t.Logf("seed %d: flush of %+v substituted wrong bytes", seed, fkey)
				return false
			}
			delete(model.fho, fkey)
			model.lbn[lbn] = data
			model.disk[lbn] = data
		case 2: // iSCSI read response → LBN capture of current disk content
			data := model.disk[lbn]
			m.CaptureLBN(lbn, 1, m.node.TxPool.GetChain(data))
			model.lbn[lbn] = data
		case 3: // read of a block carrying both identities (the §3.4 case)
			if data, dirty := model.fho[fkey]; dirty {
				// Freshness: the dirty FHO bytes win over any LBN entry.
				if !substitute(fkey.WithLBN(lbn), data, true) {
					return false
				}
			} else if data, ok := model.lbn[lbn]; ok {
				if !substitute(fkey.WithLBN(lbn), data, false) {
					return false
				}
			} else if !substitute(fkey.WithLBN(lbn), nil, false) {
				return false
			}
		case 4: // plain LBN read (second-level-cache path)
			if data, ok := model.lbn[lbn]; ok {
				if !substitute(lkey.ForLBN(lbn), data, false) {
					return false
				}
			} else if !substitute(lkey.ForLBN(lbn), nil, false) {
				return false
			}
		}
		eng.Run()
	}

	// Closing sweep: every surviving dirty entry must still serve its bytes.
	for key, data := range model.fho {
		_, _, lbn := modelKey(int(key.FH[0])-1, int(key.Off/bs))
		if !substitute(key.WithLBN(lbn), data, true) {
			return false
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
// blocks: clean LBN entries get evicted (misses are legal), but dirty FHO
// entries are pinned, so the never-stale guarantee must hold regardless.
func TestQuickRemapFreshnessUnderPressure(t *testing.T) {
	f := func(seed int64) bool {
		return runRemapModel(t, seed, 80, int64(6*(bs+EntryOverheadBytes)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
