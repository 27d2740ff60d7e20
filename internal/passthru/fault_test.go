package passthru

import (
	"bytes"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/lkey"
	"ncache/internal/ncache"
	"ncache/internal/nfs"
)

// faultCluster brings up an NCache cluster with a disarmed fault injector
// and a network-centric cache of ncacheBytes (0 = the default size).
func faultCluster(t *testing.T, spec string, ncacheBytes int64) (*Cluster, extfs.FileSpec) {
	t.Helper()
	return formattedCluster(t, ClusterConfig{
		Mode:          NCache,
		NumClients:    1,
		BlocksPerDisk: 16 * 1024,
		NCacheBytes:   ncacheBytes,
		FaultSpec:     spec,
		FaultSeed:     7,
	}, fileContent)
}

// sync flushes the server's buffer cache and returns the completion error.
func syncCache(t *testing.T, cl *Cluster) error {
	t.Helper()
	var serr error
	done := false
	cl.App.Cache.Sync(func(err error) { serr, done = err, true })
	run(t, cl)
	if !done {
		t.Fatal("sync did not complete")
	}
	return serr
}

// TestFaultFlushRetryRemapIntegrity is clause (b) of the degradation suite:
// when flush-path iSCSI writes are failed by injected transient disk errors
// and retried, the FHO→LBN remap invariants must hold — the retries carry
// the same substituted payload, the dirty entries unpin exactly once, and
// both the caches and the physical disks end up with the written bytes.
//
// The schedule rate=1:count=3 deterministically fails the first three disk
// write attempts (within the initiator's retry budget) and nothing after.
func TestFaultFlushRetryRemapIntegrity(t *testing.T) {
	cl, spec := faultCluster(t, "diskerr:disk*:rate=1:count=3", 0)
	fh := lookupFile(t, cl, "data.bin")

	const blocks = 8
	fresh := make([][]byte, blocks)
	for i := range fresh {
		fresh[i] = bytes.Repeat([]byte{0xA0 + byte(i)}, extfs.BlockSize)
		writeFile(t, cl, fh, uint64(i)*extfs.BlockSize, fresh[i])
	}
	if cl.App.Module.Stats.Captures == 0 || cl.App.Module.PinnedBytes() == 0 {
		t.Fatalf("writes not captured as dirty FHO entries: %+v", cl.App.Module.Stats)
	}

	cl.Faults.Arm()
	if err := syncCache(t, cl); err != nil {
		t.Fatalf("sync under transient disk errors: %v", err)
	}
	cl.Faults.Quiesce()

	if cl.App.Initiator.Retries == 0 {
		t.Fatal("no iSCSI retries despite injected write errors")
	}
	var faulted uint64
	for _, d := range cl.Storage.Array.Disks() {
		faulted += d.FaultErrors
	}
	if faulted != 3 {
		t.Fatalf("injected disk errors = %d, want 3", faulted)
	}
	if got := cl.App.Module.Stats.Remaps; got < blocks {
		t.Fatalf("remaps = %d, want ≥%d (every flushed block re-indexed)", got, blocks)
	}
	if p := cl.App.Module.PinnedBytes(); p != 0 {
		t.Fatalf("%d bytes still pinned after sync (retry double-remapped or lost an entry)", p)
	}

	// Every remapped block must serve the fresh bytes through the stack...
	got := readFile(t, cl, fh, 0, blocks*extfs.BlockSize)
	for i := 0; i < blocks; i++ {
		if !bytes.Equal(got[i*extfs.BlockSize:(i+1)*extfs.BlockSize], fresh[i]) {
			t.Fatalf("block %d stale after flush retries", i)
		}
	}
	// ...and the retried writes must have landed the same bytes on disk.
	for i := 0; i < blocks; i++ {
		if !bytes.Equal(cl.Storage.Array.PeekBlock(spec.StartLBN+int64(i)), fresh[i]) {
			t.Fatalf("disk block %d does not hold the flushed payload", i)
		}
	}
}

// TestFaultFlushGivesUpCleanly checks the failure path terminates and loses
// nothing: with every disk write erroring forever, the initiator exhausts
// its retry budget and Sync reports the error instead of hanging — and the
// written data, whose remap the failed write had started, is pinned again
// until a later flush lands it.
func TestFaultFlushGivesUpCleanly(t *testing.T) {
	cl, spec := faultCluster(t, "diskerr:disk*:rate=1", 0)
	fh := lookupFile(t, cl, "data.bin")
	want := bytes.Repeat([]byte{0x5A}, extfs.BlockSize)
	writeFile(t, cl, fh, 0, want)

	cl.Faults.Arm()
	err := syncCache(t, cl)
	cl.Faults.Quiesce()
	if err == nil {
		t.Fatal("sync succeeded with a 100% disk error rate")
	}
	if cl.App.Initiator.Retries == 0 {
		t.Fatal("initiator gave up without retrying")
	}
	if cl.App.Module.PinnedBytes() == 0 {
		t.Fatal("failed flush left the only copy of an acknowledged write unpinned")
	}

	if err := syncCache(t, cl); err != nil {
		t.Fatalf("sync after the errors stopped: %v", err)
	}
	if !bytes.Equal(cl.Storage.Array.PeekBlock(spec.StartLBN), want) {
		t.Fatal("platter does not hold the written bytes after the retried flush")
	}
	if p := cl.App.Module.PinnedBytes(); p != 0 {
		t.Fatalf("%d bytes still pinned after the retried flush landed", p)
	}
}

// TestFaultFlushGiveUpSurvivesCachePressure is the same failed-then-retried
// flush with a network-centric cache of a few blocks under pressure: the
// unflushed write must not be reclaimed to make room, or the retried flush
// has nothing to substitute and lands stamped junk. The pressure comes from
// reads of other data after the failure, or from client writes of other
// blocks while the failing write is still in flight.
func TestFaultFlushGiveUpSurvivesCachePressure(t *testing.T) {
	want := bytes.Repeat([]byte{0x5A}, extfs.BlockSize)
	setup := func(t *testing.T) (*Cluster, extfs.FileSpec, nfs.FH) {
		cl, spec := faultCluster(t, "diskerr:disk*:rate=1", 8*(extfs.BlockSize+ncache.EntryOverheadBytes))
		fh := lookupFile(t, cl, "data.bin")
		writeFile(t, cl, fh, 0, want)
		cl.Faults.Arm()
		return cl, spec, fh
	}
	t.Run("after the failure", func(t *testing.T) {
		cl, spec, fh := setup(t)
		if err := syncCache(t, cl); err == nil {
			t.Fatal("sync succeeded with a 100% disk error rate")
		}
		cl.Faults.Quiesce()
		// Three cache-fulls of other blocks pass through, half a cache
		// per read so no reply loses a block it was built from.
		const span = 4 * extfs.BlockSize
		for off := uint64(4 * span); off < 10*span; off += span {
			if got := readFile(t, cl, fh, off, span); !bytes.Equal(got, expect(off, span)) {
				t.Fatalf("read of other data at %d returned wrong bytes", off)
			}
		}
		if cl.App.Module.Stats.Evictions == 0 {
			t.Fatal("no eviction: the cache was never under pressure")
		}
		retriedFlushLands(t, cl, spec, want)
		if got := readFile(t, cl, fh, 0, extfs.BlockSize); !bytes.Equal(got, want) {
			t.Fatal("acknowledged write not readable after the retried flush")
		}
	})
	t.Run("while the write is in flight", func(t *testing.T) {
		cl, spec, fh := setup(t)
		var syncErr error
		synced := false
		cl.App.Cache.Sync(func(err error) { syncErr, synced = err, true })
		// Nine more blocks, one WRITE each, are captured while the flush
		// of block 0 is failing: more than the cache holds, each pinned
		// until its own flush lands.
		acked := 0
		for b := 1; b < extfs.NDirect; b++ {
			p := bytes.Repeat([]byte{byte(b)}, extfs.BlockSize)
			cl.Clients[0].NFS.WriteBytes(fh, uint64(b)*extfs.BlockSize, p, func(_ int, _ nfs.Attr, err error) {
				if err != nil {
					t.Errorf("WRITE block %d: %v", b, err)
				}
				acked++
			})
		}
		run(t, cl)
		cl.Faults.Quiesce()
		if !synced || syncErr == nil {
			t.Fatalf("sync done=%v err=%v with a 100%% disk error rate", synced, syncErr)
		}
		if acked != extfs.NDirect-1 || cl.App.Module.Stats.PinnedSkips == 0 {
			t.Fatalf("%d WRITEs acked, %d pinned skips: the cache was never under pressure",
				acked, cl.App.Module.Stats.PinnedSkips)
		}
		// The retried flush lands all ten blocks, and the reclaim after it
		// may evict block 0's entry while the file-system cache still holds
		// its key; a read would then take the substitution-miss path, which
		// is not under test here. The platter is the check.
		retriedFlushLands(t, cl, spec, want)
		for b := 1; b < extfs.NDirect; b++ {
			if got := cl.Storage.Array.PeekBlock(spec.StartLBN + int64(b)); got[0] != byte(b) {
				t.Fatalf("platter block %d holds %#x..., want %#x", b, got[0], b)
			}
		}
	})
}

// retriedFlushLands syncs again once the disk errors stopped and checks that
// block 0 holds want on the platter.
func retriedFlushLands(t *testing.T, cl *Cluster, spec extfs.FileSpec, want []byte) {
	t.Helper()
	if err := syncCache(t, cl); err != nil {
		t.Fatalf("sync after the errors stopped: %v", err)
	}
	if got := cl.Storage.Array.PeekBlock(spec.StartLBN); !bytes.Equal(got, want) {
		stamp := (lkey.Key{}).Marshal()
		t.Fatalf("platter does not hold the acknowledged bytes (stamped junk: %v)", bytes.HasPrefix(got, stamp[:8]))
	}
}

// TestFaultFlushGiveUpStillAnnouncesRemap is the scale-out row: the remap a
// failed flush started is announced to the control plane once the retried
// flush lands, so a peer caching the old block is invalidated.
func TestFaultFlushGiveUpStillAnnouncesRemap(t *testing.T) {
	cl, _ := scaleCluster(t, 2, 1, "diskerr:disk*:rate=1")
	fh := lookupFile(t, cl, "data.bin")
	appA, appB := cl.Apps[0], cl.Apps[1]
	scB, err := cl.NewScaleClient(cl.Clients[1])
	if err != nil {
		t.Fatalf("NewScaleClient: %v", err)
	}
	readVia(t, cl, scB.NFS[1], fh, 0, extfs.BlockSize) // B caches the old block
	want := bytes.Repeat([]byte{0x5A}, extfs.BlockSize)
	writeFile(t, cl, fh, 0, want) // client 0 is mounted on server A

	cl.Faults.Arm()
	if err := syncApp(t, cl, appA); err == nil {
		t.Fatal("sync succeeded with a 100% disk error rate")
	}
	cl.Faults.Quiesce()
	if n := appA.Agent.Stats.RemapsSent; n != 0 {
		t.Fatalf("%d remaps announced for a write that never committed", n)
	}
	if err := syncApp(t, cl, appA); err != nil {
		t.Fatalf("sync after the errors stopped: %v", err)
	}
	run(t, cl)
	if appA.Agent.Stats.RemapsSent == 0 || appB.Agent.Stats.InvalidationsApplied == 0 {
		t.Fatalf("retried flush landed unannounced: origin %+v, peer %+v", appA.Agent.Stats, appB.Agent.Stats)
	}
	if got := readVia(t, cl, scB.NFS[1], fh, 0, extfs.BlockSize); !bytes.Equal(got, want) {
		t.Fatal("peer serves the pre-write block after the flush landed")
	}
}
