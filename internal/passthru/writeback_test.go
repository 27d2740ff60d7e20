package passthru

import (
	"bytes"
	"testing"

	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
	"ncache/internal/simnet"
)

// writebackCluster brings up a single-server NCache cluster with the
// write-back pipeline on and a disarmed fault injector.
func writebackCluster(t *testing.T, spec string) (*Cluster, extfs.FileSpec) {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Mode:          NCache,
		NumClients:    1,
		BlocksPerDisk: 16 * 1024,
		FaultSpec:     spec,
		FaultSeed:     7,
		Writeback:     WritebackConfig{Enabled: true},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	fmtr, err := extfs.Format(cl.Storage.Array, 1024)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	fs, err := fmtr.AddFile("data.bin", 64*extfs.BlockSize, fileContent)
	if err != nil {
		t.Fatalf("AddFile: %v", err)
	}
	if err := fmtr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := cl.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return cl, fs
}

// ackChain drives a closed loop of block-sized WRITEs round-robin over
// nblocks blocks, each carrying a distinct marker byte, until one write
// fails or never completes (the crash under test). It reports, per block,
// the marker of the last acknowledged write and whether a later write to the
// block was issued but never acknowledged.
type ackChain struct {
	lastAcked  map[int]byte // block -> marker of the newest acked write
	lastIssued map[int]byte // block -> marker of the newest issued write
	acks       int
}

func driveAckChain(cl *Cluster, c *nfs.Client, fh nfs.FH, nblocks, maxWrites int) *ackChain {
	ch := &ackChain{lastAcked: map[int]byte{}, lastIssued: map[int]byte{}}
	bs := extfs.BlockSize
	var issue func(i int)
	issue = func(i int) {
		if i >= maxWrites {
			return
		}
		block := i % nblocks
		marker := byte(i%250 + 1)
		ch.lastIssued[block] = marker
		payload := bytes.Repeat([]byte{marker}, bs)
		c.WriteBytes(fh, uint64(block)*uint64(bs), payload, func(n int, _ nfs.Attr, err error) {
			if err != nil {
				return // the kill ate it; the loop ends here
			}
			ch.lastAcked[block] = marker
			ch.acks++
			issue(i + 1)
		})
	}
	issue(0)
	return ch
}

// settledBlocks returns the blocks whose newest issued write was acked — the
// blocks with no in-flight write at the crash, for which the durability
// invariant pins the exact content.
func (ch *ackChain) settledBlocks() map[int]byte {
	out := map[int]byte{}
	for b, m := range ch.lastAcked {
		if ch.lastIssued[b] == m {
			out[b] = m
		}
	}
	return out
}

// TestFaultWritebackKillReplayDurability is the write-back pipeline's
// durability property: a deterministic node kill lands mid-stream — after
// some writes were journaled, group-committed and acked, with flushed
// batches, unflushed durable WAL records and uncommitted stages all in
// play — and after restart-with-WAL-replay every acknowledged write's bytes
// are served back and sit on the physical disks. Writes caught by the crash
// before their commit never acked and carry no guarantee.
func TestFaultWritebackKillReplayDurability(t *testing.T) {
	cl, spec := writebackCluster(t, "kill:app:start=30ms")
	fh := lookupFile(t, cl, "data.bin")

	const nblocks = 32
	cl.Faults.Arm()
	ch := driveAckChain(cl, cl.Clients[0].NFS, fh, nblocks, 4000)
	run(t, cl)
	cl.Faults.Quiesce()

	if ch.acks == 0 {
		t.Fatal("no write acked before the kill; the crash window missed the stream")
	}
	if len(ch.lastIssued) == len(ch.settledBlocks()) && ch.acks >= 4000 {
		t.Fatal("every write acked; the kill never fired")
	}
	app := cl.App
	if app.Node.Incarnation() == 0 {
		t.Fatal("server did not crash")
	}
	durable := len(app.journal.Records())
	t.Logf("at the crash: %d acks, %d durable WAL records pending replay", ch.acks, durable)
	if durable == 0 {
		t.Fatal("no durable WAL records survived the crash; replay is not exercised")
	}

	restarted := false
	app.Restart(func(err error) {
		if err != nil {
			t.Fatalf("Restart: %v", err)
		}
		restarted = true
	})
	run(t, cl)
	if !restarted {
		t.Fatal("restart did not complete")
	}
	if got := app.WAL.Depth(); got != 0 {
		t.Fatalf("WAL depth = %d after replay, want 0", got)
	}

	// Every settled block serves its acked bytes through the full stack and
	// holds them on the physical disks. (A block with an unacked write in
	// flight at the crash may legitimately hold either version.)
	settled := ch.settledBlocks()
	if len(settled) == 0 {
		t.Fatal("no settled blocks to verify")
	}
	bs := extfs.BlockSize
	for block, marker := range settled {
		want := bytes.Repeat([]byte{marker}, bs)
		got := readFile(t, cl, fh, uint64(block)*uint64(bs), bs)
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: acked marker %#x lost after replay (got %#x...)", block, marker, got[0])
		}
		if disk := cl.Storage.Array.PeekBlock(spec.StartLBN + int64(block)); !bytes.Equal(disk, want) {
			t.Fatalf("block %d: acked marker %#x not on disk after replay", block, marker)
		}
	}
}

// TestFaultWritebackFlushAfterKillKeepsJournal: a flush completion that runs
// while the server is down must not truncate the journal against the emptied
// cache — nothing is dirty there, so every durable record would retire and
// replay would have nothing to apply. A burst of 8 READs and 8 WRITEs runs to
// completion; a second one goes out, the server dies 400 µs later (one WRITE
// journaled and its reply on the wire) and restarts 10 ms after that: every
// WRITE the client saw acked reads back its bytes through NFS and from the
// platter.
func TestFaultWritebackFlushAfterKillKeepsJournal(t *testing.T) {
	cl, spec := writebackCluster(t, "")
	fh := lookupFile(t, cl, "data.bin")
	c := cl.Clients[0].NFS
	c.SetRetransmit(faultRPCRTO, faultRPCTries)
	bs := extfs.BlockSize
	acked := map[int]byte{}
	burst := func(r, w, marker int) {
		for i := 0; i < 8; i++ {
			c.Read(fh, uint64(r+i)*uint64(bs), bs, func(data *netbuf.Chain, _ nfs.Attr, err error) {
				if err != nil {
					t.Errorf("READ block %d: %v", r+i, err)
					return
				}
				data.Release()
			})
			blk, m := w+i, byte(marker+i)
			c.WriteBytes(fh, uint64(blk)*uint64(bs), bytes.Repeat([]byte{m}, bs), func(n int, _ nfs.Attr, err error) {
				if err != nil || n != bs {
					t.Errorf("WRITE block %d: %d bytes, %v", blk, n, err)
					return
				}
				acked[blk] = m
			})
		}
	}
	burst(0, 32, 1)
	run(t, cl)
	burst(16, 40, 101)
	cl.Eng.RunFor(400 * sim.Microsecond)
	cl.App.Crash()
	if len(cl.App.journal.Records()) == 0 {
		t.Fatal("no durable record at the kill; the window under test is empty")
	}
	cl.Eng.RunFor(10 * sim.Millisecond)
	restarted := false
	cl.App.Restart(func(err error) {
		if err != nil {
			t.Fatalf("Restart: %v", err)
		}
		restarted = true
	})
	run(t, cl)
	if !restarted || len(acked) != 16 {
		t.Fatalf("restarted=%v, %d of 16 WRITEs acked", restarted, len(acked))
	}
	for blk, m := range acked {
		want := bytes.Repeat([]byte{m}, bs)
		if got := readFile(t, cl, fh, uint64(blk)*uint64(bs), bs); !bytes.Equal(got, want) {
			t.Errorf("block %d: acked marker %#x reads back %#x...", blk, m, got[0])
		}
		if disk := cl.Storage.Array.PeekBlock(spec.StartLBN + int64(blk)); !bytes.Equal(disk, want) {
			t.Errorf("block %d: acked marker %#x is not on the platter (%#x...)", blk, m, disk[0])
		}
	}
}

// TestFaultWritebackKillPoolsDrain extends the netbuf leak discipline over
// the new paths: journaled writes, group commits, coalesced flush batches,
// a mid-flush kill, replay, and post-replay reads must return every pooled
// buffer on every node (CI re-runs this under NCACHE_NETBUF_DEBUG=1).
func TestFaultWritebackKillPoolsDrain(t *testing.T) {
	cl, _ := writebackCluster(t, "kill:app:start=30ms")
	fh := lookupFile(t, cl, "data.bin")

	cl.Faults.Arm()
	driveAckChain(cl, cl.Clients[0].NFS, fh, 32, 4000)
	run(t, cl)
	cl.Faults.Quiesce()

	ok := false
	cl.App.Restart(func(err error) {
		if err != nil {
			t.Fatalf("Restart: %v", err)
		}
		ok = true
	})
	run(t, cl)
	if !ok {
		t.Fatal("restart did not complete")
	}
	readFile(t, cl, fh, 0, 32*extfs.BlockSize)

	if cl.App.Module != nil {
		cl.App.Module.DropClean()
	}
	nodes := []*simnet.Node{cl.App.Node, cl.Storage.Node}
	for _, h := range cl.Clients {
		nodes = append(nodes, h.Node)
	}
	checkNodesDrained(t, nodes)
}

// TestFaultWritebackKillNoStaleCrossServerReads is the scale-out half of the
// durability property: server B journals and acks writes, dies mid-flush,
// and replays its WAL on restart. The replay re-announces every replayed LBN
// to the control plane, so a peer that cached the old bytes must serve the
// fresh ones afterwards — zero stale cross-server reads for acknowledged
// writes.
func TestFaultWritebackKillNoStaleCrossServerReads(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Mode:          NCache,
		NumServers:    2,
		NumTargets:    2,
		NumClients:    2,
		BlocksPerDisk: 32 * 1024,
		FaultSpec:     "kill:app1:start=40ms",
		FaultSeed:     7,
		Writeback:     WritebackConfig{Enabled: true},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	fmtr, err := extfs.Format(cl.DirectAccess(), 1024)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	addDataFile(t, cl, fmtr)
	if err := fmtr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := cl.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	fh := lookupFile(t, cl, "data.bin")

	scA, err := cl.NewScaleClient(cl.Clients[0])
	if err != nil {
		t.Fatalf("NewScaleClient: %v", err)
	}
	viaA, viaB := scA.NFS[0], scA.NFS[1]
	appB := cl.Apps[1]

	const nblocks = 16
	const span = nblocks * extfs.BlockSize

	// A caches the old bytes (buffer cache + LBN-indexed ncache entries),
	// chunked under the protocol's 32 KB READ ceiling.
	for off := 0; off < span; off += span / 2 {
		if got := readVia(t, cl, viaA, fh, uint64(off), span/2); !bytes.Equal(got, expect(uint64(off), span/2)) {
			t.Fatalf("server A served wrong initial bytes at %d", off)
		}
	}

	cl.Faults.Arm()
	ch := driveAckChain(cl, viaB, fh, nblocks, 4000)
	run(t, cl)
	cl.Faults.Quiesce()

	if ch.acks == 0 {
		t.Fatal("no write acked via B before the kill")
	}
	if appB.Node.Incarnation() == 0 {
		t.Fatal("app1 did not crash")
	}

	restarted := false
	appB.Restart(func(err error) {
		if err != nil {
			t.Fatalf("Restart: %v", err)
		}
		restarted = true
	})
	run(t, cl)
	if !restarted {
		t.Fatal("restart did not complete")
	}

	// The remap/invalidate protocol must have converged with nothing
	// abandoned, and B's flush batching must announce remaps per batch,
	// not per block: far fewer messages than remapped LBNs.
	if appB.Agent.Stats.RemapsSent == 0 {
		t.Fatal("B announced no remaps")
	}
	if got, want := appB.Agent.Stats.RemapsAcked, appB.Agent.Stats.RemapsSent; got != want {
		t.Fatalf("remaps acked %d of %d", got, want)
	}
	if appB.Agent.Stats.RemapsAbandoned != 0 || cl.Control.Stats.Abandoned != 0 {
		t.Fatalf("remap protocol abandoned work: agent=%d cp=%d",
			appB.Agent.Stats.RemapsAbandoned, cl.Control.Stats.Abandoned)
	}

	// The invariant: for every block whose newest write was acked, A serves
	// the acked bytes — no stale cached copy survives the crash + replay.
	bs := extfs.BlockSize
	for block, marker := range ch.settledBlocks() {
		want := bytes.Repeat([]byte{marker}, bs)
		got := readVia(t, cl, viaA, fh, uint64(block)*uint64(bs), bs)
		if !bytes.Equal(got, want) {
			t.Fatalf("server A serves stale block %d after B's replay (want marker %#x, got %#x)",
				block, marker, got[0])
		}
	}
}

// TestScaleoutRemapBatchedPerFlush pins the control-plane batching win: one
// coalesced flush batch announces its remapped LBNs in one message, where
// the per-block flush path used to send one message per block.
func TestScaleoutRemapBatchedPerFlush(t *testing.T) {
	cl, _ := scaleCluster(t, 2, 2, "")
	fh := lookupFile(t, cl, "data.bin")
	scA, err := cl.NewScaleClient(cl.Clients[0])
	if err != nil {
		t.Fatalf("NewScaleClient: %v", err)
	}
	viaB := scA.NFS[1]
	appB := cl.Apps[1]

	const blocks = 8
	for i := 0; i < blocks; i++ {
		writeVia(t, cl, viaB, fh, uint64(i)*extfs.BlockSize,
			bytes.Repeat([]byte{0xD0 + byte(i)}, extfs.BlockSize))
	}
	if err := syncApp(t, cl, appB); err != nil {
		t.Fatalf("sync via B: %v", err)
	}
	run(t, cl)

	if appB.Agent.Stats.RemapsSent == 0 {
		t.Fatal("flush announced no remaps")
	}
	// 8 adjacent dirty blocks coalesce into one batch; with two targets the
	// batch splits into at most one extent per target. Per-block messaging
	// would send 8.
	if got := appB.Agent.Stats.RemapsSent; got > 2 {
		t.Fatalf("RemapsSent = %d messages for one %d-block flush, want per-batch fan-out (<= 2)", got, blocks)
	}
}

// TestFaultWritebackRewriteDuringFlushSurvivesKill is the journal's half of
// the lost-overwrite interleaving. A block is written and its flush goes
// down to a slow disk; the block is written again and acked; then the old
// flush lands, and the journal truncates the records whose blocks are
// clean. The block is not: the second version is not on the platter. The
// server dies before the second version's own flush lands, and replay must
// put the acked second version on the platter and serve it.
func TestFaultWritebackRewriteDuringFlushSurvivesKill(t *testing.T) {
	cl, spec := writebackCluster(t, "slowdisk:disk*:rate=1:delay=2ms")
	fh := lookupFile(t, cl, "data.bin")
	app, c, bs := cl.App, cl.Clients[0].NFS, extfs.BlockSize
	v1, v2 := bytes.Repeat([]byte{0x11}, bs), bytes.Repeat([]byte{0x22}, bs)
	step := func(what string, until func() bool) {
		t.Helper()
		for i := 0; !until(); i++ {
			if i == 10000 {
				t.Fatalf("%s did not happen within 100 ms", what)
			}
			cl.Eng.RunFor(10 * sim.Microsecond)
		}
	}
	write := func(p []byte) {
		acked := false
		c.WriteBytes(fh, 0, p, func(n int, _ nfs.Attr, err error) {
			if err != nil || n != bs {
				t.Errorf("WRITE: %d bytes, %v", n, err)
			}
			acked = true
		})
		step("the WRITE's ack", func() bool { return acked })
	}
	platter := func() []byte { return cl.Storage.Array.PeekBlock(spec.StartLBN) }

	write(v1)
	cl.Faults.Arm()
	step("the first flush", func() bool { return app.WB.FlushBatches == 1 })
	write(v2)
	if bytes.Equal(platter(), v1) {
		t.Fatal("the first flush landed before the rewrite was acked; the window under test is empty")
	}
	step("the first flush landing", func() bool { return bytes.Equal(platter(), v1) })
	// Past the reply's trip back to the server, short of another 2 ms disk
	// write.
	cl.Eng.RunFor(200 * sim.Microsecond)
	app.Crash()
	cl.Faults.Quiesce()
	journaled := false
	for _, r := range app.journal.Records() {
		journaled = journaled || bytes.Equal(r.Data, v2)
	}
	if !journaled {
		t.Error("the journal retired the acked rewrite before its bytes reached the platter")
	}
	restarted := false
	app.Restart(func(err error) {
		if err != nil {
			t.Fatalf("Restart: %v", err)
		}
		restarted = true
	})
	run(t, cl)
	if !restarted {
		t.Fatal("restart did not complete")
	}
	if got := readFile(t, cl, fh, 0, bs); !bytes.Equal(got, v2) {
		t.Errorf("the acked rewrite reads back %#x...", got[0])
	}
	if got := platter(); !bytes.Equal(got, v2) {
		t.Errorf("the platter holds %#x..., not the acked rewrite", got[0])
	}
}
