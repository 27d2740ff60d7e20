package bench

import (
	"runtime"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
)

// TestMissReadAllocBudget is the miss path's end-to-end gate: a steady-state
// all-miss 16 KB NCache READ — NFS request, buffer-cache miss, iSCSI command,
// four member I/Os, staging, 12 data frames back, NCache capture with
// eviction, key fill with eviction, substituted reply — after both caches
// have filled allocates at most half a payload and 3 objects on the host.
// The 2 objects measured are this test's own completion closure and the
// variable it captures: the tree allocates nothing (24 objects and 1.3 KB
// when clones were descriptors and the miss path built closures per command;
// with a slab per hop it was 57 KB).
func TestMissReadAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	const (
		req        = 16 * 1024
		fileBlocks = 16 * 1024 // 64 MB, streamed once: never a hit
		budget     = req / 2
	)
	cl, err := testHarness(t, Options{}).build(passthru.ClusterConfig{
		Mode:          passthru.NCache,
		BlocksPerDisk: fileBlocks/4 + 8192,
		FSCacheBlocks: 256,     // 1 MB
		NCacheBytes:   2 << 20, // both fill within the first 200 READs
	}, func(f *extfs.Formatter) error {
		_, err := f.AddFile("bigfile", fileBlocks*extfs.BlockSize, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fh, err := lookupFH(cl, 0, "bigfile")
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0)
	read := func() {
		got := -1
		cl.Clients[0].NFS.Read(fh, next*req, req, func(data *netbuf.Chain, _ nfs.Attr, err error) {
			if err != nil {
				t.Errorf("READ %d: %v", next, err)
				return
			}
			got = data.Len()
			data.Release()
		})
		if err := cl.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		if got != req {
			t.Fatalf("READ %d returned %d bytes, want %d", next, got, req)
		}
		next++
	}
	for i := 0; i < 512; i++ {
		read() // fill both caches, prime every free list
	}
	misses0, evict0 := cl.App.Cache.Stats.Misses, cl.App.Cache.Stats.Evictions
	const reads = 256
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&m1)
	if d := cl.App.Cache.Stats.Misses - misses0; d < reads*req/extfs.BlockSize {
		t.Fatalf("only %d block misses over %d READs: not an all-miss run", d, reads)
	}
	if d := cl.App.Cache.Stats.Evictions - evict0; d < reads*req/extfs.BlockSize {
		t.Fatalf("only %d evictions over %d READs: the FS cache had not filled", d, reads)
	}
	perRead := (m1.TotalAlloc - m0.TotalAlloc) / reads
	objects := float64(m1.Mallocs-m0.Mallocs) / reads
	t.Logf("per all-miss 16 KB READ: %d B, %.1f objects", perRead, objects)
	if perRead > budget {
		t.Errorf("all-miss 16 KB READ allocates %d B on the host, budget %d", perRead, budget)
	}
	if objects > 3 {
		t.Errorf("all-miss 16 KB READ allocates %.2f objects, budget 3", objects)
	}
}
