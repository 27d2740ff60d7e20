package passthru

import (
	"bytes"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/ncache"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
)

// The tests in this file hold the module's invariant — every logical
// FS-cache block's key resolves to a live NCache entry — where entries
// die: eviction, the remap ablation's landing, and a peer's invalidation.
// A key that names no entry panics in the hooks.

// TestNCacheSmallerThanFSCacheServesRightBytes: with an FS cache that holds
// more blocks than NCache, entries are reclaimed while the FS cache still
// holds their keys; each takes its FS-cache block along, so reads over UDP
// NFS and over kHTTPd come back with the file's bytes, read again from
// storage.
func TestNCacheSmallerThanFSCacheServesRightBytes(t *testing.T) {
	cl, spec := formattedCluster(t, ClusterConfig{
		Mode:          NCache,
		NumClients:    1,
		BlocksPerDisk: 16 * 1024,
		EnableWeb:     true,
		FSCacheBlocks: 32,
		NCacheBytes:   8 * (extfs.BlockSize + ncache.EntryOverheadBytes),
	}, fileContent)
	fh := lookupFile(t, cl, "data.bin")
	size := int(spec.Blocks) * extfs.BlockSize
	// Sixteen blocks fit the FS cache but not NCache: at the second pass
	// the FS cache still holds the first blocks' keys, NCache not their
	// entries.
	const req = 2 * extfs.BlockSize
	for pass := 0; pass < 2; pass++ {
		for off := 0; off < 16*extfs.BlockSize; off += req {
			if got := readFile(t, cl, fh, uint64(off), req); !bytes.Equal(got, expect(uint64(off), req)) {
				t.Fatalf("pass %d: NFS read at %d returned %d wrong bytes", pass, off, len(got))
			}
		}
	}
	if cl.App.Module.Stats.Evictions == 0 {
		t.Fatal("no NCache eviction: the rig exerted no pressure")
	}

	var conn *HTTPConn
	cl.Clients[0].DialHTTP(ServerAddr, func(h *HTTPConn, err error) {
		if err != nil {
			t.Fatalf("DialHTTP: %v", err)
		}
		conn = h
	})
	run(t, cl)
	var stream bytes.Buffer
	conn.conn.SetReceiver(func(data *netbuf.Chain) {
		stream.Write(data.Flatten())
		conn.receive(data)
	})
	for i := 0; i < 2; i++ {
		stream.Reset()
		n := -1
		conn.Get("data.bin", func(got int, err error) {
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			n = got
		})
		run(t, cl)
		raw := stream.Bytes()
		body := raw[bytes.Index(raw, []byte("\r\n\r\n"))+4:]
		if n != size || !bytes.Equal(body, expect(0, size)) {
			t.Fatalf("GET %d: %d body bytes, right bytes %v", i, n, bytes.Equal(body, expect(0, size)))
		}
	}
}

// TestDisableRemapReadAfterFlushLands: with remapping off, a flushed FHO
// entry dies with its FS-cache block when the write lands, so the next read
// goes back to storage and returns the written bytes.
func TestDisableRemapReadAfterFlushLands(t *testing.T) {
	cl, spec := formattedCluster(t, ClusterConfig{
		Mode:          NCache,
		NumClients:    1,
		BlocksPerDisk: 16 * 1024,
		DisableRemap:  true,
	}, fileContent)
	fh := lookupFile(t, cl, "data.bin")
	want := bytes.Repeat([]byte{0xA7}, 2*extfs.BlockSize)
	writeFile(t, cl, fh, 0, want)
	if err := syncCache(t, cl); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if got := cl.Storage.Array.PeekBlock(spec.StartLBN); !bytes.Equal(got, want[:extfs.BlockSize]) {
		t.Fatal("platter does not hold the flushed bytes")
	}
	if _, ok := cl.App.Cache.KeyAt(spec.StartLBN); ok {
		t.Fatal("the FS cache kept the key of an entry the landing dropped")
	}
	if got := readFile(t, cl, fh, 0, len(want)); !bytes.Equal(got, want) {
		t.Fatal("read after the flush landed did not return the written bytes")
	}
	if n := cl.App.Module.Stats.Remaps; n != 0 {
		t.Fatalf("%d remaps with remapping off", n)
	}
}

// TestInvalidationDuringPinnedRead: a peer's invalidation arrives while a
// read on this server holds the block pinned, waiting for the next block's
// fill. The read that began first keeps the old bytes, composed from the
// block it holds; a read that starts after the invalidation sees the new
// bytes; and no key outlives its entry either way.
func TestInvalidationDuringPinnedRead(t *testing.T) {
	cl, spec := scaleCluster(t, 2, 1, "")
	fh := lookupFile(t, cl, "data.bin")
	sc, err := cl.NewScaleClient(cl.Clients[0])
	if err != nil {
		t.Fatalf("NewScaleClient: %v", err)
	}
	viaA, viaB := sc.NFS[0], sc.NFS[1]
	appA := cl.Apps[0]
	const bs = extfs.BlockSize
	lbn := spec.StartLBN

	old := readVia(t, cl, viaA, fh, 0, bs)
	if _, ok := appA.Cache.KeyAt(lbn); !ok {
		t.Fatal("server A does not hold block 0 as a logical block")
	}
	if _, ok := appA.Cache.KeyAt(lbn + 1); ok {
		t.Fatal("server A already holds block 1: its read would not wait for a fill")
	}
	// B rewrites block 0 and its flush lands on storage; A's copy of the
	// invalidation is held back, to arrive mid-read.
	var held []int64
	appA.Agent.SetInvalidate(func(lbns []int64) { held = append(held, lbns...) })
	fresh := bytes.Repeat([]byte{0xC3}, bs)
	writeVia(t, cl, viaB, fh, 0, fresh)
	if err := syncApp(t, cl, cl.Apps[1]); err != nil {
		t.Fatalf("sync via B: %v", err)
	}
	if len(held) == 0 {
		t.Fatal("B's flush invalidated nothing on A")
	}
	appA.Agent.SetInvalidate(appA.ApplyInvalidate)

	// The read of blocks 0 and 1 pins block 0 and waits for block 1 to
	// come from storage; the invalidation arrives in between.
	var first []byte
	done := false
	viaA.Read(fh, 0, 2*bs, func(ch *netbuf.Chain, _ nfs.Attr, err error) {
		if err != nil {
			t.Errorf("Read: %v", err)
		}
		first, done = ch.Flatten(), true
		ch.Release()
	})
	for !done && appA.Cache.Pinned(lbn) == nil {
		cl.Eng.RunFor(10 * sim.Microsecond)
	}
	if done {
		t.Fatal("the read completed before it was seen holding block 0")
	}
	appA.ApplyInvalidate(held)
	run(t, cl)
	if !done {
		t.Fatal("the read holding the invalidated block never completed")
	}
	if !bytes.Equal(first[:bs], old) || !bytes.Equal(first[bs:], expect(bs, bs)) {
		t.Fatalf("the read that began before the invalidation returned wrong bytes (block 0 old %v, new %v)",
			bytes.Equal(first[:bs], old), bytes.Equal(first[:bs], fresh))
	}
	if _, ok := appA.Cache.KeyAt(lbn); ok {
		t.Fatal("the invalidated block stayed in A's FS cache")
	}
	if got := readVia(t, cl, viaA, fh, 0, bs); !bytes.Equal(got, fresh) {
		t.Fatal("a read that started after the invalidation did not see the new bytes")
	}
}
