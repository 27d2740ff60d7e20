package passthru

import (
	"bytes"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/lkey"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
)

// The lower tier's one interception point (interceptVolume), driven through
// the assembled server's Volume.

// volumeRead issues one read on the app server's lower tier and returns the
// payload.
func volumeRead(t *testing.T, cl *Cluster, lbn int64, blocks int, meta bool) []byte {
	t.Helper()
	var got []byte
	cl.App.Volume.ReadAt(lbn, blocks, meta, func(data *netbuf.Chain, err error) {
		if err != nil {
			t.Fatalf("ReadAt(%d, meta=%v): %v", lbn, meta, err)
		}
		got = data.Flatten()
		data.Release()
	})
	run(t, cl)
	if len(got) != blocks*extfs.BlockSize {
		t.Fatalf("ReadAt(%d) returned %d bytes, want %d", lbn, len(got), blocks*extfs.BlockSize)
	}
	return got
}

// volumeWrite stores one payload chain on the app server's lower tier.
func volumeWrite(t *testing.T, cl *Cluster, lbn int64, data *netbuf.Chain, meta bool) {
	t.Helper()
	done := false
	cl.App.Volume.WriteAt(lbn, data, meta, func(err error) {
		if err != nil {
			t.Fatalf("WriteAt(%d, meta=%v): %v", lbn, meta, err)
		}
		done = true
	})
	run(t, cl)
	if !done {
		t.Fatalf("WriteAt(%d) did not complete", lbn)
	}
}

// TestInterceptBypassesMetadata: a regular-data read is captured and the
// file system gets key-carrying junk; a metadata read of the same block
// returns the platter's bytes and touches the module not at all.
func TestInterceptBypassesMetadata(t *testing.T) {
	cl, spec := testCluster(t, NCache, false)
	mod := cl.App.Module
	lbn := spec.StartLBN + 3
	platter := append([]byte(nil), cl.Storage.Array.PeekBlock(lbn)...)

	before := mod.Stats
	if got := volumeRead(t, cl, lbn, 1, true); !bytes.Equal(got, platter) {
		t.Fatal("metadata read did not return the platter's bytes")
	}
	if mod.Stats != before {
		t.Fatalf("metadata read reached the module: %+v -> %+v", before, mod.Stats)
	}

	got := volumeRead(t, cl, lbn, 1, false)
	if m := lkey.ForLBN(lbn).Marshal(); !bytes.Equal(got[:lkey.Size], m[:]) {
		t.Fatalf("regular-data read returned %x, want the junk stamped for LBN %d", got[:lkey.Size], lbn)
	}
	if d := mod.Stats.Captures - before.Captures; d != 1 {
		t.Fatalf("captures = %d, want 1", d)
	}
	// The captured block is now a second-level hit: no command goes out.
	cmds := cl.App.Initiator.ReadCmds
	volumeRead(t, cl, lbn, 1, false)
	if cl.App.Initiator.ReadCmds != cmds || mod.Stats.L2Hits != before.L2Hits+1 {
		t.Fatalf("resident block not served from the cache: %d commands, %+v",
			cl.App.Initiator.ReadCmds-cmds, mod.Stats)
	}
}

// TestInterceptSubstitutedPayloadReachesPlatter: a regular-data write of
// stamped junk lands the cached payload on the platter; the same junk
// written as metadata lands verbatim.
func TestInterceptSubstitutedPayloadReachesPlatter(t *testing.T) {
	cl, spec := testCluster(t, NCache, false)
	mod := cl.App.Module
	fh, lbn := nfs.FH{9}, spec.StartLBN+5
	real := bytes.Repeat([]byte{0xAA}, extfs.BlockSize)
	mod.CaptureFHO(fh, 0, cl.App.Node.TxPool.GetChain(real)).Release()
	key := lkey.ForFHO(fh, 0)

	volumeWrite(t, cl, lbn, lkey.StampChainPool(cl.App.Node.BlkPool, key, extfs.BlockSize), false)
	if !bytes.Equal(cl.Storage.Array.PeekBlock(lbn), real) {
		t.Fatal("substituted payload did not reach the platter")
	}
	if mod.Stats.Remaps != 1 || mod.PinnedBytes() != 0 {
		t.Fatalf("remaps = %d, pinned = %d after the write committed", mod.Stats.Remaps, mod.PinnedBytes())
	}

	volumeWrite(t, cl, lbn+1, lkey.StampChainPool(cl.App.Node.BlkPool, key, extfs.BlockSize), true)
	if m := key.Marshal(); !bytes.Equal(cl.Storage.Array.PeekBlock(lbn + 1)[:lkey.Size], m[:]) {
		t.Fatal("metadata write was intercepted: the platter does not hold the bytes written")
	}
	if mod.Stats.Remaps != 1 {
		t.Fatalf("metadata write remapped: remaps = %d", mod.Stats.Remaps)
	}
}

// TestFaultMirrorInterceptsOncePerLogicalIO: the interception sits above the
// initiator's retry and the mirror's fan-out and failover, so however many
// commands a logical I/O becomes below, WriteOut remaps each block once and
// the Baseline junk filter replaces each payload once.
func TestFaultMirrorInterceptsOncePerLogicalIO(t *testing.T) {
	t.Run("NCache write-out", func(t *testing.T) {
		cl, spec := mirrorCluster(t, NCache, "diskerr:s0m1.disk*:rate=1:count=60")
		fh := lookupFile(t, cl, "data.bin")
		const blocks = 6
		cl.Faults.Arm()
		for i := 0; i < blocks; i++ {
			writeFile(t, cl, fh, uint64(i)*extfs.BlockSize, bytes.Repeat([]byte{0xB0 + byte(i)}, extfs.BlockSize))
			if err := syncCache(t, cl); err != nil {
				t.Fatalf("sync %d with one arm failing: %v", i, err)
			}
		}
		cl.Faults.Quiesce()
		run(t, cl)
		if cl.App.Initiators[1].Retries == 0 || armStats(t, cl, "t0m1").Errors == 0 {
			t.Fatal("the failing arm was never retried and failed: the scenario exercised nothing")
		}
		if got := cl.App.Module.Stats.Remaps; got != blocks {
			t.Fatalf("remaps = %d for %d blocks written: WriteOut did not run exactly once per logical write", got, blocks)
		}
		for i := 0; i < blocks; i++ {
			want := bytes.Repeat([]byte{0xB0 + byte(i)}, extfs.BlockSize)
			for a, arm := range cl.StorageArms[0] {
				if !bytes.Equal(arm.Array.PeekBlock(spec.StartLBN+int64(i)), want) {
					t.Fatalf("arm %d block %d does not hold the written bytes after resync", a, i)
				}
			}
		}
	})
	t.Run("Baseline junk filter", func(t *testing.T) {
		// The read arm (primary-first: arm 0) fails past the initiator's
		// retries, so each read is issued again on arm 1.
		cl, spec := mirrorCluster(t, Baseline, "diskerr:disk*:rate=1:count=8")
		pool := cl.App.Node.BlkPool
		const blocks = 4
		cl.Faults.Arm()
		for i := int64(0); i < 2; i++ {
			taken := pool.Allocs() + pool.Reuses()
			got := volumeRead(t, cl, spec.StartLBN+i*blocks, blocks, false)
			for b := 0; b < blocks; b++ {
				if m := (lkey.Key{}).Marshal(); !bytes.Equal(got[b*extfs.BlockSize:][:lkey.Size], m[:]) {
					t.Fatalf("read %d block %d is not identity-free junk", i, b)
				}
			}
			if n := pool.Allocs() + pool.Reuses() - taken; n != blocks {
				t.Fatalf("read %d drew %d junk blocks for %d read: the filter did not run exactly once", i, n, blocks)
			}
		}
		cl.Faults.Quiesce()
		run(t, cl)
		if cl.App.Initiators[0].Retries == 0 || armStats(t, cl, "t0m0").Errors == 0 || armStats(t, cl, "t0m1").Reads == 0 {
			t.Fatalf("no read failed over: %+v", cl.App.Volume.Stats())
		}
	})
}
