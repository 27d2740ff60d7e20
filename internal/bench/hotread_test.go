package bench

import (
	"reflect"
	"runtime"
	"testing"

	"ncache/internal/fault"
	"ncache/internal/metrics"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
	"ncache/internal/workload"
)

// hotReadRig builds the Fig. 5(b) testbed (the hot file streamed through the
// server once, so every later READ is an all-hit) and returns a
// function that issues one 32 KB READ at block offset i*8 and runs it to
// completion.
func hotReadRig(t *testing.T, mode passthru.Mode) (*passthru.Cluster, func(i int)) {
	t.Helper()
	const hotBytes = 5 << 20
	cl, load, err := testHarness(t, Options{}).hitRig(passthru.ClusterConfig{Mode: mode, ServerNICs: 2}, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	fh := load.FH
	const req = 32 * 1024
	read := func(i int) {
		got := -1
		off := uint64(i%(hotBytes/req)) * req
		cl.Clients[0].NFS.Read(fh, off, req, func(data *netbuf.Chain, _ nfs.Attr, err error) {
			if err != nil {
				t.Errorf("READ at %d: %v", off, err)
				return
			}
			got = data.Len()
			data.Release()
		})
		cl.Eng.Run()
		if got != req {
			t.Fatalf("READ at %d returned %d bytes, want %d", off, got, req)
		}
	}
	return cl, read
}

// TestHotReadAllocBudget is the end-to-end host-cost gate: an all-hit 32 KB
// NCache READ — request, cache walk, substitution, 23 reply frames across the
// switch, reassembly, delivery — allocates nothing in the tree: the 2 objects
// the gate reads are this test's own completion closure and the variable it
// captures. The budget is 3 objects per READ. Its events are gated too: per
// datagram, the egress downlink's completion of its last frame, which
// delivers it, and one upcall, none for a departure, an arrival at the
// switch, CPU time nothing waits on or a fragment ahead of the last (quiet),
// make 8 per READ.
func TestHotReadAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	cl, read := hotReadRig(t, passthru.NCache)
	for i := 0; i < 32; i++ {
		read(i) // prime every free list
	}
	const reads = 128
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0 := cl.Eng.Processed()
	for i := 0; i < reads; i++ {
		read(i)
	}
	runtime.ReadMemStats(&m1)
	events := float64(cl.Eng.Processed() - e0)
	objects := float64(m1.Mallocs - m0.Mallocs)
	t.Logf("per READ: %.1f events, %.1f objects, %.1f KB",
		events/reads, objects/reads, float64(m1.TotalAlloc-m0.TotalAlloc)/reads/1024)
	if objects/reads > 3 {
		t.Errorf("hot 32 KB READ allocates %.2f objects, budget 3", objects/reads)
	}
	if events/reads > hotReadEvents {
		t.Errorf("hot 32 KB READ executes %.2f events, ceiling %d", events/reads, hotReadEvents)
	}
}

// hotReadEvents is the measured events per all-hit 32 KB READ.
const hotReadEvents = 8

// TestHotReadQuietMatchesPerFrameEvents: the all-hit 32 KB READ loop, four
// READs from each client at a time, runs the same with quiet fragments as
// with a rate-0 frame-drop schedule that names every site, so that every
// frame departs, reaches the egress and is delivered in an event of its own:
// each READ completes at the same instant in its own span, which books the
// same time to every layer, and every node ends with the same CPU busy time
// and wire counters. The per-frame run spends a departure and an arrival
// event per frame at its named sites and a delivery per non-final fragment,
// 22 per reply.
func TestHotReadQuietMatchesPerFrameEvents(t *testing.T) {
	type run struct {
		done           []sim.Time
		summary        *trace.Summary
		busy           []sim.Duration
		net            []metrics.Net
		events, frames uint64
	}
	const rounds, perClient, req = 4, 4, 32 * 1024
	observe := func(forced bool) run {
		cl, load, err := testHarness(t, Options{}).hitRig(passthru.ClusterConfig{Mode: passthru.NCache, ServerNICs: 2}, 32, nil)
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
		tr := trace.NewTracer(cl.Eng, "hit")
		var x run
		e0, f0 := cl.Eng.Processed(), frames()
		for r := 0; r < rounds; r++ {
			for c, h := range cl.Clients {
				for k := 0; k < perClient; k++ {
					i := (r*len(cl.Clients)+c)*perClient + k
					span := tr.Begin("read")
					off := uint64(i) % (load.FileSize / req) * req
					h.NFS.Read(load.FH, off, req, func(data *netbuf.Chain, _ nfs.Attr, err error) {
						if err != nil || data.Len() != req || cl.Eng.Context() != span {
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
	if reads == 0 || !reflect.DeepEqual(quiet.done, forced.done) {
		t.Errorf("READs completed at %v quiet, %v per frame", quiet.done, forced.done)
	}
	if !reflect.DeepEqual(quiet.summary, forced.summary) {
		t.Errorf("spans quiet %+v, per frame %+v", quiet.summary, forced.summary)
	}
	if !reflect.DeepEqual(quiet.busy, forced.busy) || !reflect.DeepEqual(quiet.net, forced.net) {
		t.Errorf("CPU busy %v and wire counters %v quiet, %v and %v per frame", quiet.busy, quiet.net, forced.busy, forced.net)
	}
	t.Logf("%d READs, %d frames: %d events quiet, %d per frame", reads, quiet.frames, quiet.events, forced.events)
	if quiet.frames != forced.frames || forced.events-quiet.events != 2*quiet.frames+22*reads {
		t.Errorf("%d events quiet, %d per frame, for %d frames; want %d more", quiet.events, forced.events,
			quiet.frames, 2*quiet.frames+22*reads)
	}
}

// TestSFSMixAllocBudget is the same gate for the metadata-heavy path: the
// Fig. 7 mix at 30 % regular data on a small rig — GETATTR, LOOKUP, READDIR
// and CREATE/REMOVE over a 256-entry directory beside small reads and writes.
// Directory scans compare names in place, a name stays bytes from the RPC
// body to the scan, CREATE and REMOVE are phases of one walk record and a
// listing is encoded from the walk's own into pooled transmit buffers: 1.7
// objects per operation (3.4 before that, 212 in the first version), mostly
// the client's READDIR result and the load's own closures (ROADMAP item 12).
func TestSFSMixAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	h := testHarness(t, Options{Scale: 16, Warmup: sim.Millisecond, Window: 150 * sim.Millisecond})
	cl, load, err := h.sfsRig(passthru.ClusterConfig{Mode: passthru.NCache}, "sfs", workload.SFSConfig{RegularDataPct: 30})
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0 := cl.Eng.Processed()
	w, err := h.measure(cl, load, nil, 1, nil, nil)
	if err != nil || w.Errors != 0 || w.Ops == 0 {
		t.Fatalf("measure: %v, %d errors, %d ops", err, w.Errors, w.Ops)
	}
	runtime.ReadMemStats(&m1)
	ops := float64(w.Ops)
	events := float64(cl.Eng.Processed() - e0)
	objects := float64(m1.Mallocs - m0.Mallocs)
	t.Logf("per op: %.1f events, %.1f objects, %.2f objects/event, %.2f KB",
		events/ops, objects/ops, objects/events, float64(m1.TotalAlloc-m0.TotalAlloc)/ops/1024)
	if objects/ops > sfsMixObjectsPerOp {
		t.Fatalf("SFS mix allocates %.1f objects per operation (%.0f over %.0f ops), budget %.1f",
			objects/ops, objects, ops, sfsMixObjectsPerOp)
	}
}

// sfsMixObjectsPerOp is the measured 1.7 objects per operation plus 10 %.
const sfsMixObjectsPerOp = 1.9

// TestWritebackAllocBudget gates the write-back path the same way: the
// fig-writeback mix (75 % regular data, half of it WRITEs) on the WAL arm,
// where every WRITE is journaled, group-committed and later flushed through
// NCache's write-out and remap. The log's staging slices, the flusher's batch
// record, the write-out's remap list and the volume completions are recycled
// records or methods bound once, so what is left per operation is the SFS
// mix's own closures and the fill: NCache entries for fresh writes and first
// writes to the disks.
func TestWritebackAllocBudget(t *testing.T) {
	if netbuf.DebugEnabled() {
		t.Skip("nothing is recycled in debug mode")
	}
	h := testHarness(t, Options{Scale: 16, Warmup: sim.Millisecond, Window: 150 * sim.Millisecond})
	cl, load, err := h.sfsRig(passthru.ClusterConfig{
		Mode:      passthru.NCache,
		Writeback: passthru.WritebackConfig{Enabled: true},
	}, "wb", workload.SFSConfig{RegularDataPct: 75, WriteMixPct: writebackWriteMixPct})
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w, err := h.measure(cl, load, nil, 1, nil, nil)
	if err != nil || w.Errors != 0 || w.Ops == 0 {
		t.Fatalf("measure: %v, %d errors, %d ops", err, w.Errors, w.Ops)
	}
	runtime.ReadMemStats(&m1)
	if cl.App.WB.WALCommits == 0 || cl.App.WB.FlushBatches == 0 {
		t.Fatalf("write-back pipeline idle: %d commits, %d flush batches", cl.App.WB.WALCommits, cl.App.WB.FlushBatches)
	}
	ops := float64(w.Ops)
	objects := float64(m1.Mallocs - m0.Mallocs)
	t.Logf("per op: %.2f objects, %.2f KB", objects/ops, float64(m1.TotalAlloc-m0.TotalAlloc)/ops/1024)
	if objects/ops > writebackObjectsPerOp {
		t.Fatalf("write-back mix allocates %.2f objects per operation (%.0f over %.0f ops), budget %.2f",
			objects/ops, objects, ops, writebackObjectsPerOp)
	}
}

// writebackObjectsPerOp is the measured 5.28 objects per operation plus 10 %
// (5.8 while CREATE and REMOVE were closure chains; 8.9 when the log's groups
// regrew from nil and every flush, write-out and volume completion was a
// closure).
const writebackObjectsPerOp = 5.8

// TestHotReadChecksumInherited asserts the paper's checksum-inheritance claim
// on the host: with checksum offload off, an all-hit NCache READ's reply
// leaves the server without a single payload byte being summed in software
// (the partial captured at receive time is inherited across substitution and
// the RPC header), while Original mode on the same input walks the whole
// reply. The client's own counter gives the two datagram sizes: it sums the
// request synchronously when it sends it and the reply when it verifies it.
func TestHotReadChecksumInherited(t *testing.T) {
	for _, mode := range []passthru.Mode{passthru.NCache, passthru.Original} {
		cl, read := hotReadRig(t, mode)
		server, client := cl.App.Node, cl.Clients[0].Node
		for _, nic := range append(server.NICs(), client.NICs()...) {
			nic.ChecksumOffload = false
		}
		read(0) // warm: the measured READ below is a repeat
		s0, c0 := server.Copies.ChecksumBytes, client.Copies.ChecksumBytes
		read(0)
		serverSummed := server.Copies.ChecksumBytes - s0
		clientSummed := client.Copies.ChecksumBytes - c0
		// client = request (tx) + reply (rx); server = request (rx) +
		// whatever of the reply it summed on transmit.
		const request = 4*10 + nfs.FHLen + 12 // RPC call header + READ args
		reply := clientSummed - request
		if reply < 32*1024 {
			t.Fatalf("%s: client summed %d bytes, expected a %d-byte request and a reply over 32 KB", mode, clientSummed, request)
		}
		txSummed := serverSummed - request
		switch mode {
		case passthru.NCache:
			if txSummed != 0 {
				t.Errorf("NCache: server summed %d reply bytes in software on transmit, want 0 (inherited partial)", txSummed)
			}
		default:
			if txSummed != reply {
				t.Errorf("%s: server summed %d reply bytes on transmit, want the whole %d-byte reply", mode, txSummed, reply)
			}
		}
	}
}
