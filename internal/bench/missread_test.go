package bench

import (
	"reflect"
	"runtime"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/fault"
	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
)

// missReadReq is the READ size of the miss-path gates.
const missReadReq = 16 * 1024

// missReader builds an NCache cluster over a 64 MB file that is streamed once
// (never a hit) with the given file-system cache and NCache sizes, and
// returns it with a function that issues the next sequential 16 KB READ and
// runs it to completion.
func missReader(t *testing.T, fsCacheBlocks int, ncacheBytes int64) (*passthru.Cluster, func()) {
	t.Helper()
	const fileBlocks = 16 * 1024
	cl, err := testHarness(t, Options{}).build(passthru.ClusterConfig{
		Mode:          passthru.NCache,
		BlocksPerDisk: fileBlocks/4 + 8192,
		FSCacheBlocks: fsCacheBlocks,
		NCacheBytes:   ncacheBytes,
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
	// The completion is bound once, so the gates measure the tree alone.
	next, got := uint64(0), 0
	onRead := func(data *netbuf.Chain, _ nfs.Attr, err error) {
		if err != nil {
			t.Errorf("READ %d: %v", next, err)
			return
		}
		got = data.Len()
		data.Release()
	}
	return cl, func() {
		got = -1
		cl.Clients[0].NFS.Read(fh, next*missReadReq, missReadReq, onRead)
		cl.Eng.Run()
		if got != missReadReq {
			t.Fatalf("READ %d returned %d bytes, want %d", next, got, missReadReq)
		}
		next++
	}
}

// measureMissReads issues reads READs and returns the host bytes and objects
// allocated per READ, failing unless every block of every READ missed.
func measureMissReads(t *testing.T, cl *passthru.Cluster, read func(), reads int) (uint64, float64) {
	t.Helper()
	misses0 := cl.App.Cache.Stats.Misses
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&m1)
	if d := cl.App.Cache.Stats.Misses - misses0; d < uint64(reads*missReadReq/extfs.BlockSize) {
		t.Fatalf("only %d block misses over %d READs: not an all-miss run", d, reads)
	}
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(reads), float64(m1.Mallocs-m0.Mallocs) / float64(reads)
}

// TestMissReadAllocBudget is the miss path's end-to-end gate: a steady-state
// all-miss 16 KB NCache READ — NFS request, buffer-cache miss, iSCSI command,
// four member I/Os, staging, 12 data frames back, NCache capture with
// eviction, key fill with eviction, substituted reply — after both caches
// have filled allocates at most half a payload and 1 object on the host.
// It measures no objects: the tree allocates nothing (24 objects and 1.3 KB
// when clones were descriptors and the miss path built closures per command;
// with a slab per hop it was 57 KB).
func TestMissReadAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	const budget = missReadReq / 2
	cl, read := missReader(t, 256, 2<<20) // both caches fill within the first 200 READs
	for i := 0; i < 512; i++ {
		read() // fill both caches, prime every free list
	}
	evict0 := cl.App.Cache.Stats.Evictions
	const reads = 256
	perRead, objects := measureMissReads(t, cl, read, reads)
	if d := cl.App.Cache.Stats.Evictions - evict0; d < reads*missReadReq/extfs.BlockSize {
		t.Fatalf("only %d evictions over %d READs: the FS cache had not filled", d, reads)
	}
	t.Logf("per all-miss 16 KB READ: %d B, %.1f objects", perRead, objects)
	if perRead > budget {
		t.Errorf("all-miss 16 KB READ allocates %d B on the host, budget %d", perRead, budget)
	}
	if objects > 1 {
		t.Errorf("all-miss 16 KB READ allocates %.2f objects, budget 1", objects)
	}
}

// TestMissReadFillAllocBudget gates the fill regime, where the benchmark's
// all-miss workload runs: with 64 MB of NCache nothing is ever evicted from
// it, so every READ keeps what it captures. Per 16 KB READ that is four
// entries, each holding a chain struct and a window slice, and the 12 wire
// buffers the chains keep; all of them are carved from slabs of up to 64
// (netbuf.Slab), so together they cost a fraction of an object (0.6). Measured
// after 128 priming READs, once the file-system cache is evicting too (52
// objects when window slices grew by append doubling and every pool buffer
// was its own two objects; 12.4 while entries, chain structs and window
// slices were each allocated alone).
func TestMissReadFillAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	const ncacheBytes = 64 << 20
	cl, read := missReader(t, 256, ncacheBytes)
	for i := 0; i < 128; i++ {
		read()
	}
	const reads = 256
	perRead, objects := measureMissReads(t, cl, read, reads)
	if ev := cl.App.Module.Stats.Evictions; ev != 0 {
		t.Fatalf("NCache evicted %d entries: not the fill regime", ev)
	}
	t.Logf("per all-miss 16 KB READ while NCache fills: %d B, %.1f objects", perRead, objects)
	if objects > 1 {
		t.Errorf("all-miss 16 KB READ in the fill regime allocates %.2f objects, budget 1", objects)
	}
}

// TestMissReadFSFillAllocBudget gates the regime nfs-miss starts each
// repetition in, at its cache sizes: a 32 MB file-system cache and 64 MB of
// NCache, both still filling, so neither evicts. Every block a READ brings in stays resident in
// both, and the file-system cache keeps it as a key, with no page: per 16 KB
// READ that is four Blocks beside NCache's records of the fill regime (see
// TestMissReadFillAllocBudget), all carved from slabs, and never a 4 KB page
// (37 KB and 20.4 objects when every block got a zeroed page at insert; 16.4
// objects while every Block and NCache record was allocated alone).
func TestMissReadFSFillAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	const (
		budget  = 24 * 1024
		objects = 1
	)
	cl, read := missReader(t, 8192, 64<<20)
	for i := 0; i < 128; i++ {
		read()
	}
	const reads = 256
	perRead, objs := measureMissReads(t, cl, read, reads)
	if ev := cl.App.Cache.Stats.Evictions; ev != 0 {
		t.Fatalf("the file-system cache evicted %d blocks: not its fill regime", ev)
	}
	t.Logf("per all-miss 16 KB READ while both caches fill: %d B, %.1f objects", perRead, objs)
	if perRead > budget {
		t.Errorf("all-miss 16 KB READ with both caches filling allocates %d B on the host, budget %d", perRead, budget)
	}
	if objs > objects {
		t.Errorf("all-miss 16 KB READ with both caches filling allocates %.2f objects, budget %d", objs, objects)
	}
}

// TestMissReadEventBudget pins the simulator events of one all-miss 16 KB
// READ, as hotReadEvents pins the hit path's: 54.25 until the iSCSI data
// segments that neither end a PDU nor make the initiator ack, 6 of the 12
// per READ, crossed quiet (see tcp.Conn.pump).
func TestMissReadEventBudget(t *testing.T) {
	cl, read := missReader(t, 256, 2<<20)
	for i := 0; i < 64; i++ {
		read()
	}
	const reads = 128
	e0 := cl.Eng.Processed()
	for i := 0; i < reads; i++ {
		read()
	}
	events := float64(cl.Eng.Processed()-e0) / reads
	t.Logf("per all-miss 16 KB READ: %.2f events", events)
	if events > missReadEvents {
		t.Errorf("all-miss 16 KB READ executes %.2f events, ceiling %.2f", events, missReadEvents)
	}
}

// missReadEvents is the measured events per all-miss 16 KB READ.
const missReadEvents = 42.25

// TestMissReadQuietMatchesPerFrameEvents: the all-miss 16 KB READ loop, four
// READs from each client at a time, runs the same with quiet fragments and
// segments as with a rate-0 frame-drop schedule that names every site, so
// that no frame crosses quiet: each READ completes at the same instant in
// its own span, which books the same time to every layer, and every node
// ends with the same CPU busy time and wire counters. The per-frame run
// spends a departure and an arrival event per frame at its named sites, a
// delivery per non-final fragment, 11 per reply, and a departure and an
// upcall per quiet iSCSI data segment, 6 per READ.
func TestMissReadQuietMatchesPerFrameEvents(t *testing.T) {
	type run struct {
		done           []sim.Time
		summary        *trace.Summary
		busy           []sim.Duration
		net            []metrics.Net
		events, frames uint64
	}
	const rounds, perClient = 4, 4
	observe := func(forced bool) run {
		cl, read := missReader(t, 256, 2<<20)
		for i := 0; i < 8; i++ {
			read()
		}
		fh, err := lookupFH(cl, 0, "bigfile")
		if err != nil {
			t.Fatal(err)
		}
		if forced {
			in := fault.New(cl.Eng, 1)
			in.Add(fault.Schedule{Class: fault.FrameDrop, Target: "*", Rate: 0})
			cl.Net.SetFaults(in)
			in.Arm()
		}
		var nodes []*simnet.Node
		for _, app := range cl.Apps {
			nodes = append(nodes, app.Node)
		}
		for _, h := range cl.Clients {
			nodes = append(nodes, h.Node)
		}
		for _, ss := range cl.Storages {
			nodes = append(nodes, ss.Node)
		}
		frames := func() (n uint64) {
			for _, nd := range nodes {
				n += nd.NetTotals().PacketsTx
			}
			return n
		}
		tr := trace.NewTracer(cl.Eng, "miss")
		var x run
		e0, f0 := cl.Eng.Processed(), frames()
		for r := 0; r < rounds; r++ {
			for c, h := range cl.Clients {
				for k := 0; k < perClient; k++ {
					i := (r*len(cl.Clients)+c)*perClient + k
					span := tr.Begin("read")
					h.NFS.Read(fh, uint64(64+i)*missReadReq, missReadReq, func(data *netbuf.Chain, _ nfs.Attr, err error) {
						if err != nil || data.Len() != missReadReq || cl.Eng.Context() != span {
							t.Errorf("READ %d: %v, %d bytes, in context %v", i, err, data.Len(), cl.Eng.Context())
						}
						data.Release()
						x.done = append(x.done, cl.Eng.Now())
						span.Finish()
					})
				}
			}
			cl.Eng.SetContext(nil)
			cl.Eng.Run()
		}
		x.summary, x.events, x.frames = tr.Summary(), cl.Eng.Processed()-e0, frames()-f0
		for _, nd := range nodes {
			x.busy, x.net = append(x.busy, nd.CPU.Busy()), append(x.net, nd.NetTotals())
		}
		return x
	}
	quiet, forced := observe(false), observe(true)
	reads := uint64(len(quiet.done))
	if reads != rounds*perClient*2 || !reflect.DeepEqual(quiet.done, forced.done) {
		t.Errorf("READs completed at %v quiet, %v per frame", quiet.done, forced.done)
	}
	if !reflect.DeepEqual(quiet.summary, forced.summary) {
		t.Errorf("spans quiet %+v, per frame %+v", quiet.summary, forced.summary)
	}
	if !reflect.DeepEqual(quiet.busy, forced.busy) || !reflect.DeepEqual(quiet.net, forced.net) {
		t.Errorf("CPU busy %v and wire counters %v quiet, %v and %v per frame", quiet.busy, quiet.net, forced.busy, forced.net)
	}
	t.Logf("%d READs, %d frames: %d events quiet, %d per frame", reads, quiet.frames, quiet.events, forced.events)
	if want := 2*quiet.frames + (11+2*6)*reads; quiet.frames != forced.frames || forced.events-quiet.events != want {
		t.Errorf("%d events quiet, %d per frame, for %d frames; want %d more", quiet.events, forced.events, quiet.frames, want)
	}
}
